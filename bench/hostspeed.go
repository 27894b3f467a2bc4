package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in shares its host: over tens of
// seconds the same code runs up to 1.5x slower and recovers, in both wall
// and CPU time, so a 10 s run's raw seconds spread by about 25% between
// runs of one commit. hostSpeed measures that drift with code of its own
// — a fixed memory-bound slice on every worker, independent of the
// program under test — sampled between timed regions, and twice a second
// beside a region that cannot be interrupted. A slice is measured in the
// CPU time of the threads that ran it, so waiting for a core the workload
// holds does not count; only running slower does. CPU-bound times are
// then reported at reference host speed: raw × nominalSlice / median
// slice. Times a ticker sets (the open-loop sessions' wall time) are
// reported raw. The raw values and the factor are printed beside them.
type hostSpeed struct {
	data [][]uint64

	mu      sync.Mutex
	samples []float64 // slice CPU times in ms
}

const (
	// hostWords sizes each worker's array at 32 MB, past any per-core
	// cache, so the slice feels contention for memory as the simulator
	// and the livenet do.
	hostWords = 1 << 22
	// nominalSliceMs is one slice on the reference host (2 vCPU Xeon
	// 2.1 GHz) when it is quiet; it only fixes the unit.
	nominalSliceMs = 5.0
)

// newHostSpeed maps the arrays outside the Go heap: 32 MB of live heap per
// worker would move the collector's pacing, and with it the peak RSS and
// the GC share of every workload.
func newHostSpeed(workers int) (*hostSpeed, error) {
	h := &hostSpeed{}
	for w := 0; w < workers; w++ {
		mem, err := syscall.Mmap(-1, 0, hostWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, err
		}
		d := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), hostWords)
		x := uint64(88172645463325252) + uint64(w)
		for i := range d {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d[i] = x
		}
		h.data = append(h.data, d)
	}
	return h, nil
}

var hostSink uint64 // keeps the slice's loads alive

// threadCPUSeconds is the CPU time the calling OS thread has run, from
// CLOCK_THREAD_CPUTIME_ID: the scheduler's own nanosecond account, where
// getrusage's per-thread figures move in timer ticks.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// sample runs one slice — on every worker at once, a dependent-load chase
// through the array followed by a strided read of all of it — and records
// the mean CPU time the workers' threads spent on it.
func (h *hostSpeed) sample() {
	var wg sync.WaitGroup
	sums := make([]uint64, len(h.data))
	cpu := make([]float64, len(h.data))
	for w, d := range h.data {
		wg.Add(1)
		go func(w int, d []uint64) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPUSeconds()
			var idx, s uint64
			for i := 0; i < 60000; i++ {
				idx = d[idx&(hostWords-1)]
				s += idx
			}
			for i := 0; i < len(d); i += 4 {
				s += d[i]
			}
			sums[w] = s
			cpu[w] = threadCPUSeconds() - start
		}(w, d)
	}
	wg.Wait()
	ms := mean(cpu) * 1e3
	for _, s := range sums {
		hostSink += s
	}
	h.mu.Lock()
	h.samples = append(h.samples, ms)
	h.mu.Unlock()
}

// watch samples in the background, for a region that cannot be
// interrupted (an open-loop session): one slice per interval, about one
// percent of one core. The returned function stops it and waits for it.
func (h *hostSpeed) watch(every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// sliceMs is the run's median slice; factor turns a raw CPU-bound time
// into one at reference host speed.
func (h *hostSpeed) sliceMs() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.samples)
}

func (h *hostSpeed) factor() float64 {
	if ms := h.sliceMs(); ms > 0 {
		return nominalSliceMs / ms
	}
	return 1
}
