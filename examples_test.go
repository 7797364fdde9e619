package aftermath_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tempSuffix matches the random suffix os.MkdirTemp appends to an
// example's "aftermath-<name>" scratch directory.
var tempSuffix = regexp.MustCompile(`(aftermath-[a-z]+)\d+`)

// TestExamples builds every example and runs each in a fresh directory
// that is also its TMPDIR. A deterministic example must print
// testdata/stdout.golden and write exactly the files, with the SHA-256
// sums, that testdata/files.sha256 lists; the temp path is masked in
// both. The examples that depend on timing and ports need only exit 0.
func TestExamples(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, ex := range []struct {
		name   string
		golden bool
	}{
		{"quickstart", true},
		{"seidel-analysis", true},
		{"kmeans-tuning", true},
		{"numa-debugging", true},
		{"anomaly-hunting", true},
		{"import-microservice-trace", true},
		{"live-monitoring", false},
		{"multi-trace-hub", false},
	} {
		t.Run(ex.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, ex.name))
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "TMPDIR="+dir)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\nstderr:\n%s", ex.name, err, stderr.String())
			}
			if !ex.golden {
				return
			}
			mask := func(s string) string {
				return tempSuffix.ReplaceAllString(strings.ReplaceAll(s, dir, "$TMPDIR"), "${1}*")
			}
			testdata := filepath.Join("examples", ex.name, "testdata")
			compare(t, filepath.Join(testdata, "stdout.golden"), mask(stdout.String()))
			compare(t, filepath.Join(testdata, "files.sha256"), mask(fileSums(t, dir)))
		})
	}
}

// fileSums lists every file under dir as sha256sum(1) does: the hex
// digest, two spaces and the slash-separated relative path, sorted by
// path.
func fileSums(t *testing.T, dir string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		lines = append(lines, hex.EncodeToString(sum[:])+"  "+filepath.ToSlash(rel)+"\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(lines, func(i, j int) bool {
		return lines[i][sha256.Size*2+2:] < lines[j][sha256.Size*2+2:]
	})
	return strings.Join(lines, "")
}

func compare(t *testing.T, goldenPath, got string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", goldenPath, got, want)
	}
}
