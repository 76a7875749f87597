package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// provenance records where a result came from, so two result files can be
// told apart by more than their numbers.
type provenance struct {
	// Commit and Dirty come from the VCS stamp the go tool puts into the
	// binary when it is built inside a git checkout; the driver's checkout
	// is not one, and reports "unknown".
	Commit     string `json:"git_commit"`
	Dirty      bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	// Built says how the binary came to be: run.sh builds it from the
	// working tree on every invocation, never from a kept binary.
	Built string `json:"built"`
}

func collectProvenance(seed int64) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernelRelease(),
		Seed:       seed,
		Built:      "go build of the working tree at run time (run.sh)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
