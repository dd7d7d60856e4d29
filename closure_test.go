package dta

import (
	"bytes"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const closureGolden = "testdata/closure.golden"

// TestClosureSize pins the code a deployment runs — the import closure
// of package dta within this module — against testdata/closure.golden:
// one sorted line per package with its non-test Go line count, a second
// line for its assembly when it has any, and the totals. The file is
// also the package map. Files are selected as a linux/amd64 build
// without cgo selects them, whatever the host, so the file reads the
// same everywhere. A change to the closure is deliberate: rewrite the
// file with
//
//	go test -run TestClosureSize . -update
//
// and explain the diff in the change's description.
func TestClosureSize(t *testing.T) {
	got, err := closureSize(".")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, closureGolden, "deployment closure", got)
}

// closureSize renders the closure of the module package in root (the
// module root, whose import path is "dta"), sorted, then its totals.
func closureSize(root string) ([]string, error) {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	ctx.ToolTags = nil // build.Default's are the host's (386.sse2, amd64.v1, ...)
	var lines []string
	var goTotal, asmTotal int
	seen := map[string]bool{"dta": true}
	for queue := []string{"dta"}; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, "dta")))
		bp, err := ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		n, err := countLines(dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		goTotal += n
		lines = append(lines, fmt.Sprintf("%s %d", path, n))
		if len(bp.SFiles) > 0 {
			n, err := countLines(dir, bp.SFiles)
			if err != nil {
				return nil, err
			}
			asmTotal += n
			lines = append(lines, fmt.Sprintf("%s asm %d", path, n))
		}
		for _, im := range bp.Imports {
			if (im == "dta" || strings.HasPrefix(im, "dta/")) && !seen[im] {
				seen[im] = true
				queue = append(queue, im)
			}
		}
	}
	slices.Sort(lines)
	return append(lines, fmt.Sprintf("total %d packages, %d lines of Go, %d lines of assembly", len(seen), goTotal, asmTotal)), nil
}

// countLines is wc -l over the named files of dir.
func countLines(dir string, names []string) (int, error) {
	n := 0
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		n += bytes.Count(b, []byte("\n"))
	}
	return n, nil
}
