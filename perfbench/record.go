package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository (the source digest then
// identifies the code).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (paths
// and contents, sorted), skipping hidden and build directories, so two runs
// can tell whether they measured the same code without a repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding path (the data directories of the
// serve and durable workloads live there).
func fsType(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown", err
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0xEF53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794C7630:
		return "overlayfs", nil
	}
	return "0x" + strings.ToLower(hex.EncodeToString([]byte{
		byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type),
	})), nil
}
