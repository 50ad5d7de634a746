//go:build unix

package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestFailedStoreCloseFailsTheCommand: when the store's final flush fails —
// here the process's file-size limit stops the write — the segment on disk
// is cut short, so crawlbench prints the close error and exits 1.
func TestFailedStoreCloseFailsTheCommand(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	defer func(args []string, out, errOut *os.File) {
		os.Args, os.Stdout, os.Stderr = args, out, errOut
	}(os.Args, os.Stdout, os.Stderr)
	os.Args = []string{"crawlbench", "-exp", "table1", "-sites", "cl", "-scale", "0.0005",
		"-maxpages", "120", "-runs", "1", "-stats", "-store", dir}
	os.Stdout, os.Stderr = stdout, stderr

	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	// The -stats crawls store tens of KB, short of one mid-run flush, so
	// only the close writes the segment, and 8 KB of it fit.
	small := limit
	small.Cur = 8 << 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &small); err != nil {
		t.Fatal(err)
	}
	status := run()
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}

	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if status != 1 || !strings.Contains(string(msg), "closing store") {
		t.Errorf("exit status %d, stderr %q; want 1 and the failed close", status, msg)
	}
}
