package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// refNode is the reference loop's heap object: a few words, a pointer,
// like the simulator's request and event records.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refSink keeps the loops' results observable so they cannot be elided.
var refSink uint64

// refLoop is the fixed reference work host-speed normalisation divides
// by. It does what the simulator's hot paths do — allocate small
// objects, chase pointers, update a map, give the collector garbage —
// using only the standard library and runtime, so its cost follows the
// host (and the Go toolchain) but never the program under test.
func refLoop(iters int) {
	m := make(map[uint64]*refNode, 4096)
	var live *refNode
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{key: x}
		if i%8 == 0 {
			n.next, live = live, n // a growing survivor chain
		}
		if old := m[x&4095]; old != nil {
			refSink += old.key
		}
		m[x&4095] = n
		if i%4096 == 4095 {
			for p := live; p != nil; p = p.next {
				refSink += p.key
			}
			live = nil
		}
	}
}

// spinTable is spinLoop's working set: larger than a core's L1, so the
// loop's speed follows the caches the host shares as well as the core.
var spinTable [spinMask + 1]uint64

const spinMask = 1<<15 - 1

// spinLoop is the reference work of the live workloads. Unlike refLoop
// it allocates nothing, so running it beside a live stack adds no
// garbage to the stack's collector.
func spinLoop(iters int) {
	x := uint64(0x9E3779B97F4A7C15)
	var s uint64
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += spinTable[x&spinMask]
		spinTable[(s^x>>17)&spinMask] = x
	}
	refSink += s
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage, it counts the running thread's time up to the call, not up
// to the last scheduler tick.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time so far.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostMeter measures the host's speed while a live stack runs. A
// goroutine locked to its own OS thread runs one slice of spinLoop every
// meterPeriod and reads the thread's own CPU time around it. Thread CPU
// time leaves out the time the thread waits for a core, so the stack's
// load does not slow the meter down; what moves it is how fast the
// host's cores and caches do work, slice by slice through the window.
type hostMeter struct {
	stop, done chan struct{}
	iters      int64
	cpu        time.Duration
}

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(meterPeriod)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			spinLoop(spinItersPerSlice)
			m.cpu += threadCPU() - t0
			m.iters += spinItersPerSlice
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the meter and returns the iterations it ran and the CPU
// time they took.
func (m *hostMeter) finish() (int64, time.Duration) {
	close(m.stop)
	<-m.done
	return m.iters, m.cpu
}
