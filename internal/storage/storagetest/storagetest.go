// Package storagetest fails a package's tests when they leave a storage
// engine behind. A store without a directory runs the engine on a
// temporary directory its Close removes, so an engine a test never closes
// leaves its two goroutines running and a directory in TMPDIR. Use it from
// the package's TestMain:
//
//	func TestMain(m *testing.M) { storagetest.Main(m) }
package storagetest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs m with TMPDIR pointed at a private directory, then fails the
// run if anything is left in that directory or any goroutine an engine
// started is still running. The goroutine check reads every stack with
// runtime.Stack, the technique of Uber's goleak.
func Main(m *testing.M) {
	dir, err := os.MkdirTemp("", "storagetest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "storagetest:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	// An engine closed as m.Run returned may still be winding down.
	stacks := engineGoroutines()
	for wait := time.Millisecond; len(stacks) > 0 && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
		stacks = engineGoroutines()
	}
	if len(stacks) > 0 {
		fmt.Fprintf(os.Stderr, "storagetest: %d engine goroutines still running (an engine was never closed); the first:\n\n%s\n", len(stacks), stacks[0])
		code = 1
	}
	if left, err := os.ReadDir(dir); err != nil {
		fmt.Fprintln(os.Stderr, "storagetest:", err)
		code = 1
	} else if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "storagetest: TMPDIR holds %d entries after the tests, %s the first (an engine was never closed, or a test left a file)\n", len(left), left[0].Name())
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// engineGoroutines returns the stacks of the goroutines open engines run:
// runtime.Stack names the function that started each goroutine.
func engineGoroutines() []string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "created by socialchain/internal/storage.OpenPersist") {
			out = append(out, g)
		}
	}
	return out
}
