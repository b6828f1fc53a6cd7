package linalg

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEvalPathUsesInPlaceSolvers greps the evaluation-path packages for
// the allocating linalg entry points. LU.Solve/CLU.Solve/Dense.MulVec
// allocate a result vector per call — fine for one-shot analysis code,
// but the synthesis hot path runs hundreds of thousands of evaluations
// and must route through AutoLU and the *Into/InPlace variants, which
// reuse storage. The allocation benchmarks catch a regression only on
// the decks they compile; this guard catches it at the call site.
func TestEvalPathUsesInPlaceSolvers(t *testing.T) {
	pkgs := []string{"astrx", "awe", "dcsolve", "acsim", "anneal", "oblx"}
	banned := regexp.MustCompile(`\.MulVec\(|\.Solve\(`)
	for _, pkg := range pkgs {
		dir := filepath.Join("..", pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no sources under %s — package moved? update this guard", dir)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				// dcsolve.Solve is the package-level Newton driver, not a
				// dense-LU method; it is the one legitimate ".Solve(".
				scrubbed := strings.ReplaceAll(line, "dcsolve.Solve(", "")
				if m := banned.FindString(scrubbed); m != "" {
					t.Errorf("%s:%d: allocating call %q on the eval path — use the AutoLU or *Into/InPlace form", f, i+1, m)
				}
			}
		}
	}
}
