package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cicero/internal/core"
	"cicero/internal/tcrypto/pairing"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the process's current resident set size, or 0 when
// /proc is unavailable.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// envStamp labels a result with what it was measured on, so that a
// change of machine, toolchain or parameter set reads as a labelled
// change, not an unexplained one.
type envStamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Params     string `json:"pairing_params"`
	Backend    string `json:"backend"`
	BatchSize  int    `json:"batch_size"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	// Commit is the checked-out git commit, "none" outside a git
	// checkout; SourceSHA256 identifies the Go sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// HostProbe is hostProbe before the run and after it.
	HostProbe [2]float64 `json:"host_sha256_mb_per_s"`
}

// hostProbe is the machine's SHA-256 throughput in MB/s on GOMAXPROCS
// goroutines: the median of five windows of 60 ms, so that one stalled
// window does not set it. It runs none of the program's code, so when
// it moves between runs, the host's speed moved: a shared machine's
// speed drifts, and this tells that apart from a change of the program.
func hostProbe() float64 {
	rates := make([]float64, 5)
	for i := range rates {
		rates[i] = hashRate(60 * time.Millisecond)
	}
	return median(rates)
}

// hashRate hashes on GOMAXPROCS goroutines for span and returns MB/s.
func hashRate(span time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for time.Since(start) < span {
				sum := sha256.Sum256(buf)
				buf[0] = sum[0]
				total.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds() / 1e6
}

// stampEnv fills the stamp for a run from the repository at root; the
// caller adds the span and trace mode.
func stampEnv(root string, spec workloadSpec, n *core.Network, seed int64) envStamp {
	return envStamp{
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Params:       paramsName(n.Cfg.Params),
		Backend:      spec.backend,
		BatchSize:    spec.batch,
		Workload:     spec.name,
		Seed:         seed,
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

// paramsName names the pairing parameter set a deployment runs.
func paramsName(p *pairing.Params) string {
	name := "custom"
	switch p {
	case pairing.Fast254():
		name = "Fast254"
	case pairing.Std512():
		name = "Std512"
	}
	return name + "(p=" + strconv.Itoa(p.P.BitLen()) + "b,r=" + strconv.Itoa(p.R.BitLen()) + "b)"
}

// gitCommit reads HEAD from root/.git without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root
// (paths and contents, in path order), skipping hidden directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
