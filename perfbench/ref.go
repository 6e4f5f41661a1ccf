package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host speed on a shared machine drifts by tens of percent within seconds
// as neighbours contend for caches and cores, far more than any bound a
// regression gate can use. The driver therefore times a short reference
// kernel at every segment boundary (each segmentCPs CPs, outside the timed
// calls) and reports host times in reference seconds: each segment's host
// time scaled by the mean kernel rate at its two ends over refNominal. A
// change to the program moves the reported times; a machine that runs
// slower or faster for a while moves the program and the kernel alike, and
// cancels.

// refNominal is the kernel rate, in runs per host second, at which a
// reference second equals a host second.
const refNominal = 250.0

const (
	refTableBits = 20 // 1<<20 uint64 = 8 MiB, beyond the private caches
	refLookups   = 1 << 17
	refSortLen   = 1 << 13
)

// refKernel is the kernel's preallocated state. It allocates nothing while
// timed, and its table is mapped outside the Go heap, so neither the
// program's GC nor peak_heap_mb sees it.
type refKernel struct {
	mem   []byte
	table []uint64
	keys  []uint64
	sink  uint64
}

func newRefKernel() (*refKernel, error) {
	n := 1 << refTableBits
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	k := &refKernel{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n), keys: make([]uint64, refSortLen)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.table {
		x = x*6364136223846793005 + 1442695040888963407
		k.table[i] = x
	}
	return k, nil
}

func (k *refKernel) close() error { return syscall.Munmap(k.mem) }

// rate runs the kernel once — hashed random reads across the table with a
// data-dependent branch, then a sort — and returns runs per host second.
func (k *refKernel) rate() float64 {
	t0 := time.Now()
	x := k.sink | 1
	for i := 0; i < refLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := k.table[(x*0x9e3779b97f4a7c15)>>(64-refTableBits)]
		if v&1 == 0 {
			k.sink += v
		} else {
			k.sink ^= v
		}
	}
	for i := range k.keys {
		x = x*6364136223846793005 + 1442695040888963407
		k.keys[i] = x
	}
	slices.Sort(k.keys)
	k.sink += k.keys[len(k.keys)/2]
	return 1 / time.Since(t0).Seconds()
}
