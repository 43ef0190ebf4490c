package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is the host block of every result: enough to tell whether two
// result sets are comparable.
type hostInfo struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	WALFilesystem string `json:"wal_filesystem"`
	// Transport says what the workload's packets crossed: nothing here
	// measures a real link.
	Transport string `json:"transport"`
}

func describeHost(p params) hostInfo {
	h := hostInfo{
		Commit:        headCommit("."),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		WALFilesystem: filesystemType(p.tmpDir),
		Transport:     "in-process",
	}
	if p.workload == "fanout-udp" {
		h.Transport = "loopback"
	}
	return h
}

// headCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// filesystemType names the filesystem a directory is on, by statfs magic.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
