package graph

// rowSortCutoff is the longest row CanonicalizeRow insertion-sorts; longer
// rows are radix-sorted.
const rowSortCutoff = 48

// RowScratch is CanonicalizeRow's radix buffer. The zero value grows on the
// heap to the longest row it sorts; a caller that knows its longest row can
// preset both slices to that length (from an arena, say), and then nothing
// grows.
type RowScratch[ID int32 | int64] struct {
	IDs []ID
	Ws  []int64
	// ones is the weight row CanonicalizeCSR sorts a row of a unit-weight
	// CSR with; it holds only ones between rows.
	ones []int64
}

// CanonicalizeCSR canonicalizes every row of the CSR arrays (xadj, ids, ws)
// with CanonicalizeRow, moves the rows together at the front of ids and ws,
// rewrites xadj to match and returns the new arc count and ws. xadj[0] must
// be 0.
//
// ws nil means that every weight is 1. Each row is then sorted with a
// scratch row of ones and nothing is stored, until a row merges a
// duplicate: that row allocates ws, ones but for its merged weights, and
// the pass goes on with stored weights. So one pass canonicalizes either
// way, and ws comes back nil exactly when no duplicate was merged.
func CanonicalizeCSR[ID int32 | int64](xadj []int64, ids []ID, ws []int64, s *RowScratch[ID]) (int64, []int64) {
	out, start := int64(0), int64(0) // out never passes a row's start
	for v := 1; v < len(xadj); v++ {
		end := xadj[v]
		row := ids[start:end]
		var m int
		if ws != nil {
			m = CanonicalizeRow(row, ws[start:end], s)
			copy(ws[out:], ws[start:start+int64(m)])
		} else if m = CanonicalizeRow(row, s.unitRow(len(row)), s); m < len(row) {
			ws = fillOnes(make([]int64, len(ids)))
			copy(ws[out:], s.ones[:m])
			s.ones = nil
		}
		copy(ids[out:], row[:m])
		out, start = out+int64(m), end
		xadj[v] = out
	}
	return out, ws
}

// unitRow returns n ones from s's own scratch.
func (s *RowScratch[ID]) unitRow(n int) []int64 {
	if len(s.ones) < n {
		s.ones = fillOnes(make([]int64, max(n, 2*len(s.ones))))
	}
	return s.ones[:n]
}

// CanonicalizeRow brings one adjacency row into canonical form in place —
// strictly ascending IDs, duplicates merged by summing their weights — and
// returns its new length. A row that is already canonical costs one scan.
// Short rows are insertion-sorted; longer rows are LSD radix-sorted on the
// bytes of id−min, one pass per byte of max−min. The result is a function
// of the multiset of (id, weight) pairs, never of their order.
func CanonicalizeRow[ID int32 | int64](ids []ID, ws []int64, s *RowScratch[ID]) int {
	n := len(ids)
	if n < 2 {
		return n
	}
	lo, hi, ascending := ids[0], ids[0], true
	for i := 1; i < n; i++ {
		ascending = ascending && ids[i-1] < ids[i]
		lo, hi = min(lo, ids[i]), max(hi, ids[i])
	}
	if ascending {
		return n
	}
	srcI, srcW := ids, ws
	if n <= rowSortCutoff {
		for i := 1; i < n; i++ {
			x, w, j := ids[i], ws[i], i
			for ; j > 0 && ids[j-1] > x; j-- {
				ids[j], ws[j] = ids[j-1], ws[j-1]
			}
			ids[j], ws[j] = x, w
		}
	} else {
		if len(s.IDs) < n {
			s.IDs, s.Ws = make([]ID, n), make([]int64, n)
		}
		dstI, dstW := s.IDs[:n], s.Ws[:n]
		base, span := uint64(lo), uint64(hi)-uint64(lo)
		for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
			var at [256]int
			for _, x := range srcI {
				at[byte((uint64(x)-base)>>shift)]++
			}
			sum := 0
			for d, c := range at {
				at[d], sum = sum, sum+c
			}
			for i, x := range srcI {
				d := byte((uint64(x) - base) >> shift)
				dstI[at[d]], dstW[at[d]] = x, srcW[i]
				at[d]++
			}
			srcI, dstI, srcW, dstW = dstI, srcI, dstW, srcW
		}
	}
	// Merge runs of equal IDs from the sorted copy into the row; in place
	// when the sorted copy is the row itself (out never passes i).
	out := 0
	for i, x := range srcI {
		if out > 0 && ids[out-1] == x {
			ws[out-1] += srcW[i]
		} else {
			ids[out], ws[out] = x, srcW[i]
			out++
		}
	}
	return out
}
