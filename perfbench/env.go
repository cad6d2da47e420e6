package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// conditions records what a result was measured under, so paired runs
// can spot host drift between them.
type conditions struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Commit is the git commit when the tree is a git checkout;
	// SourceDigest identifies the source either way.
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Kernel       string  `json:"kernel"`
	WALFS        string  `json:"wal_fs"`
	LoadAvg1     float64 `json:"loadavg_1m_at_start"`
	WarmupS      float64 `json:"warmup_s"`
	SetupReps    int     `json:"setup_reps"`
}

func readConditions(root, walDir string) conditions {
	c := conditions{
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Kernel:       readTrim("/proc/sys/kernel/osrelease"),
		WALFS:        fsType(walDir),
	}
	if f := strings.Fields(readTrim("/proc/loadavg")); len(f) > 0 {
		c.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
	}
	return c
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD from the .git directory without running git;
// "none" outside a git checkout.
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if head == "unknown" {
			return "none"
		}
		return head
	}
	if h := readTrim(filepath.Join(root, ".git", ref)); h != "unknown" {
		return h
	}
	for _, line := range strings.Split(readTrim(filepath.Join(root, ".git", "packed-refs")), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the tree, in
// path order, skipping hidden directories (build output, VCS data).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(root, p)
				h.Write([]byte(rel))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding path, from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlay"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
