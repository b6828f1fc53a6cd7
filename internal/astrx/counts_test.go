package astrx

import (
	"strings"
	"testing"
)

// TestCountNames: every count has its own group.count name, and a
// count's group runs in one stretch of the record, so the count lines of
// oblx -stage-sample print each group once.
func TestCountNames(t *testing.T) {
	seen := map[string]bool{}
	done := map[string]bool{}
	last := ""
	for i := 0; i < NumCounts; i++ {
		name := Count(i).String()
		group, count, ok := strings.Cut(name, ".")
		if !ok || group == "" || count == "" || strings.Contains(count, ".") || seen[name] {
			t.Errorf("count %d: name %q, want a distinct group.count", i, name)
		}
		if group != last {
			if done[group] {
				t.Errorf("count %d (%s): group %s resumes after another group", i, name, group)
			}
			done[last], last = true, group
		}
		seen[name] = true
	}
	if got := Count(NumCounts).String(); got != "unknown" {
		t.Errorf("Count(NumCounts) = %q, want unknown", got)
	}
}
