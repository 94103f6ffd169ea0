package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// host identifies where and on what code a result was measured, so
// numbers from different machines or commits are never compared blind.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the checkout is a repository, else
	// "unknown"; SourceSHA256 digests every .go and go.mod file under the
	// checkout, which identifies the code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// JournalFS is the filesystem type under the journal directory.
	JournalFS string `json:"journal_fs"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests while the run went on. On a shared host every
	// wall-clock figure slows with it.
	StealFrac float64 `json:"steal_frac"`
}

func stampHost(root, journalDir string) host {
	h := host{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest(root),
		JournalFS:    fsType(journalDir),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping build output and VCS metadata.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		sum.Write([]byte(rel + "\x00"))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// hostCPU is the machine-wide CPU time counters of /proc/stat, in ticks:
// all of it, and the part the hypervisor gave to other guests (steal).
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	var h hostCPU
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal [guest guest_nice,
	// which user and nice already include].
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealSince is the share of the machine's CPU time since h0 that the
// hypervisor gave to other guests.
func (h hostCPU) stealSince(h0 hostCPU) float64 {
	if h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}
