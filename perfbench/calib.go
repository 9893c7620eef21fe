package main

import (
	"math/rand"
	"time"
)

// Shared hosts change speed by a fifth or more within minutes, as their
// other tenants come and go. So that runs made minutes apart compare, the
// benchmark times a fixed calibration kernel, which shares no code with
// the simulator, before every unit of work, and reports host times scaled
// by refCalibration over the run's median kernel time: in seconds of a
// host on which the kernel takes refCalibration. The unscaled values are
// printed beside the result.
const refCalibration = 5 * time.Millisecond

// calTable is a single random cycle over 2 MiB, walked by calibrate.
var calTable []uint32

var calSink uint64

// calibrate times the kernel: dependent loads around calTable, which miss
// the private caches the way the simulator's tables do, interleaved with
// integer arithmetic.
func calibrate() time.Duration {
	if calTable == nil {
		calTable = make([]uint32, 1<<19)
		for i := range calTable {
			calTable[i] = uint32(i)
		}
		r := rand.New(rand.NewSource(1))
		for i := len(calTable) - 1; i > 0; i-- { // Sattolo: one cycle through every entry
			j := r.Intn(i)
			calTable[i], calTable[j] = calTable[j], calTable[i]
		}
	}
	t0 := time.Now()
	j, x := uint32(0), uint64(88172645463325252)
	for i := 0; i < 1<<16; i++ {
		j = calTable[j]
		for k := 0; k < 8; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	calSink += x + uint64(j)
	return time.Since(t0)
}
