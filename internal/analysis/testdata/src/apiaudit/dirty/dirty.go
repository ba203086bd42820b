// Package dirty seeds bare-[]int32 leaks through an exported API.
package dirty

// Assign returns a raw partition slice.
func Assign(n int) []int32 { // want `exported Assign has a bare \[\]int32`
	return make([]int32, n)
}

// Legacy returns a raw slice; a deprecation tag is not an escape.
//
// Deprecated: use a wrapper.
func Legacy(n int) []int32 { // want `exported Legacy has a bare \[\]int32`
	return make([]int32, n)
}

// Apply takes a raw partition slice.
func Apply(part []int32) { // want `exported Apply has a bare \[\]int32`
}

// Config carries a raw partition field.
type Config struct {
	K       int
	Initial []int32 // want `exported field Config.\[Initial\] carries a bare \[\]int32`
}

// Picker is an exported func type with a raw partition parameter.
type Picker func(part []int32) int32 // want `exported func type Picker has a bare \[\]int32`
