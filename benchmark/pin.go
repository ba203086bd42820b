package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark is Linux-only (sched_setaffinity here, /proc in env.go); no
// build tags, because the repo's lint loader type-checks every file of the
// tree together.

// reexecOnOneCPU confines the calling thread to the first CPU it is allowed
// on and replaces the process with a copy of itself, which inherits the
// mask: its runtime.NumCPU() is 1, the plain single-threaded baseline. The
// copy finds envName=1 in its environment. It returns only on failure.
func reexecOnOneCPU(envName string) error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one [16]uint64
	for i, word := range mask {
		if word != 0 {
			one[i] = word & -word // lowest set bit
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), envName+"=1"))
}
