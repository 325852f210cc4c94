package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance is recorded with every result, so a figure can be traced
// back to the code, toolchain, host and inputs that produced it.
type provenance struct {
	// Commit is the git commit when the tree is a repository; Source is
	// a digest of every Go source and module file under the root, which
	// identifies the code in checkouts without git metadata.
	Commit      string  `json:"commit"`
	Source      string  `json:"source_sha256"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Workers     int     `json:"workers"`
	FlowWorkers int     `json:"flow_workers"`
	Trace       bool    `json:"trace"`
}

func newProvenance(root, workload string, seed int64, scale float64, workers, flowWorkers int, trace bool) provenance {
	return provenance{
		Commit:      gitCommit(root),
		Source:      sourceDigest(root),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    cpuModel(),
		Workload:    workload,
		Seed:        seed,
		Scale:       scale,
		Workers:     workers,
		FlowWorkers: flowWorkers,
		Trace:       trace,
	}
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and bytes of every .go, go.mod and go.sum
// file under root, skipping dot-directories (build output, VCS data).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n := d.Name()
		if !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
