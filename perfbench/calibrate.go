package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed moves from second to second: on a shared 2-vCPU guest
// the same operation's CPU time swings by 20% as other tenants load the
// core and its caches. The benchmark tracks that speed with a fixed
// reference kernel, run between operations, and reports every time scaled
// to the speed at which the kernel takes refNominal. The kernel is
// benchmark code, independent of the program, so a program change moves
// the scaled times exactly as it moves the raw ones.

const (
	// refNominal is the kernel's CPU time at reference speed.
	refNominal = time.Millisecond
	// refEvery is the operation CPU time between two kernel samples.
	refEvery = 20 * time.Millisecond
	// refWindow is how many samples, centred on an operation, the median
	// that scales it is taken over.
	refWindow = 5
	// refTable and refRounds size the kernel: refRounds passes of lookups
	// over a refTable-entry map, about 1 ms on a 2020s x86 core.
	refTable  = 1024
	refRounds = 55
)

type refKey struct {
	vlan uint16
	mac  [6]byte
}

type refEntry struct {
	port    int
	expires time.Duration
}

// refKernel is a cache-resident hash-map lookup loop: the kind of work that
// dominates the program's per-frame cost (switch learning, scheme tables,
// ARP caches), with none of its code.
type refKernel struct {
	table map[refKey]refEntry
	keys  []refKey
	sink  int
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make(map[refKey]refEntry, refTable)}
	x := uint64(0x9e3779b97f4a7c15)
	for len(k.keys) < refTable {
		x = x*6364136223846793005 + 1442695040888963407
		key := refKey{vlan: 1, mac: [6]byte{2, byte(x >> 16), byte(x >> 24), byte(x >> 32), byte(x >> 40), byte(x >> 48)}}
		if _, dup := k.table[key]; dup {
			continue
		}
		k.table[key] = refEntry{port: len(k.keys), expires: time.Hour}
		k.keys = append(k.keys, key)
	}
	return k
}

// sample runs the kernel once and returns the CPU time the calling thread
// spent on it. An untimed first pass brings the table back into the cache,
// so the sample does not depend on how much the last operation evicted.
func (k *refKernel) sample() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.pass(-1)
	t0 := threadCPU()
	for r := 0; r < refRounds; r++ {
		k.pass(time.Duration(r))
	}
	return threadCPU() - t0
}

func (k *refKernel) pass(now time.Duration) {
	for _, key := range k.keys {
		if k.table[key].expires <= now {
			k.sink++
		}
	}
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID: the calling thread's CPU time,
// to the nanosecond.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// refScale returns, for each of n operations, the factor that takes its
// CPU time to reference speed: refNominal over the median of the refWindow
// kernel samples nearest it. before[i] is how many samples were taken
// before operation i started.
func refScale(samples []time.Duration, before []int) []float64 {
	scale := make([]float64, len(before))
	for i, b := range before {
		lo := min(max(b-refWindow/2, 0), max(len(samples)-refWindow, 0))
		hi := min(lo+refWindow, len(samples))
		w := make([]float64, 0, refWindow)
		for _, s := range samples[lo:hi] {
			w = append(w, s.Seconds())
		}
		scale[i] = refNominal.Seconds() / median(w)
	}
	return scale
}
