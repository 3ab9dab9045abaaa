// Package codectest keeps the fuzz corpora committed beside the codec's
// decoders in step with the format they decode: a seed file is the encoding
// of a fixture, so a format break that forgets to regenerate it would leave
// the fuzzer starting from inputs no decoder accepts any more.
package codectest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// UpdateEnv, set to 1, makes Corpus write the seed files instead of
// checking them: UPDATE_FUZZ_CORPUS=1 go test ./internal/...
const UpdateEnv = "UPDATE_FUZZ_CORPUS"

// Corpus checks that testdata/fuzz/<target>/<name> holds exactly args
// (each a []byte or a byte, in the fuzz target's argument order) for every
// named seed, in the format `go test -fuzz` reads. Files it is not told
// about — inputs a fuzz run found and someone kept — are left alone.
func Corpus(t *testing.T, target string, seeds map[string][]any) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for name, args := range seeds {
		var want strings.Builder
		want.WriteString("go test fuzz v1\n")
		for _, a := range args {
			switch v := a.(type) {
			case []byte:
				fmt.Fprintf(&want, "[]byte(%q)\n", v)
			case byte:
				fmt.Fprintf(&want, "byte(%q)\n", rune(v))
			default:
				t.Fatalf("seed %s: unsupported argument type %T", name, a)
			}
		}
		path := filepath.Join(dir, name)
		if os.Getenv(UpdateEnv) == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want.String() {
			t.Errorf("fuzz seed %s is not the current encoding of its fixture (%v); regenerate with %s=1", path, err, UpdateEnv)
		}
	}
}
