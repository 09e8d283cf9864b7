// Package prof wires the conventional -cpuprofile/-memprofile flags
// into the CLIs (nbr-bench, nbr-chaos) using only the standard
// library's runtime/pprof. The resulting files feed straight into
// `go tool pprof`; see EXPERIMENTS.md "Profiling the simulator".
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// PeakRSSMiB reads the process's peak resident set (VmHWM); where /proc
// is missing it falls back to the memory the Go runtime obtained from
// the system.
func PeakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// Flags holds the profile destinations registered by Register.
type Flags struct {
	// CPU is the -cpuprofile path ("" = off).
	CPU string
	// Mem is the -memprofile path ("" = off).
	Mem string
}

// Register adds -cpuprofile and -memprofile to fs and returns the
// struct their values land in after parsing.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Wrap runs body with profiling active: CPU profiling starts before
// body and stops after it; the allocation profile is snapshotted once
// body returns. The body's error wins over any profile-writing error.
// With both paths empty, Wrap is just body().
func (f *Flags) Wrap(body func() error) error {
	stop, err := f.start()
	if err != nil {
		return err
	}
	bodyErr := body()
	if err := stop(); err != nil && bodyErr == nil {
		return err
	}
	return bodyErr
}

// start begins CPU profiling if requested and returns the function
// that finishes both profiles.
func (f *Flags) start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		cpu, err = os.Create(f.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		if f.Mem != "" {
			mf, err := os.Create(f.Mem)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			// An explicit GC makes the "allocs" profile reflect every
			// allocation up to this point, not just the surviving heap.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
				mf.Close()
				return fmt.Errorf("prof: %w", err)
			}
			if err := mf.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		return nil
	}, nil
}
