package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a cpu_set_t of 1024 CPUs.
type cpuMask [16]uint64

// cpu0 holds CPU 0 only.
var cpu0 = cpuMask{1}

// currentMask returns the CPUs the calling thread may run on.
func currentMask() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("reading the CPU affinity: %w", errno)
	}
	return m, nil
}

// setAffinity restricts every thread of the benchmark to the CPUs of m,
// and with them every process it starts afterwards, since a child
// inherits the mask of the thread that forks it. It repeats until a
// pass finds no thread it had not set, so threads the runtime starts
// meanwhile are covered too.
func setAffinity(m cpuMask) error {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil || done[tid] {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("setting the CPU affinity of thread %d: %w", tid, errno)
			}
			done[tid] = true
			fresh = true
		}
		if !fresh {
			return nil
		}
	}
}
