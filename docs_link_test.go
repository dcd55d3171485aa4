package rubin_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rubin/internal/bench"
)

// markdownLinkRE captures the target of inline markdown links.
var markdownLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	matches, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, matches...)
}

// TestDocsLinks asserts every relative link in README.md and docs/*.md
// resolves to an existing file in the repository — the docs link-check CI
// runs. External links (with a scheme) and pure anchors are skipped;
// fragment suffixes on relative links are ignored.
func TestDocsLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range markdownLinkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
		}
	}
}

// TestDocsMentionEveryExperiment asserts docs/EXPERIMENTS.md documents
// each registered experiment with its own section heading naming every
// knob in its table as a code span, so the registry and its
// documentation cannot drift apart silently.
func TestDocsMentionEveryExperiment(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	experiments := bench.Experiments()
	if len(experiments) < 8 {
		t.Fatalf("registry has %d experiments, want at least 8", len(experiments))
	}
	for _, e := range experiments {
		_, section, found := strings.Cut(text, "\n## "+e.Name+" ")
		if !found {
			t.Errorf("docs/EXPERIMENTS.md: missing section for experiment %s", e.Name)
			continue
		}
		section, _, _ = strings.Cut(section, "\n## ")
		for _, k := range e.Knobs {
			if !strings.Contains(section, "`"+k.Name+"`") {
				t.Errorf("docs/EXPERIMENTS.md: section %s does not document knob `%s`", e.Name, k.Name)
			}
		}
	}
}
