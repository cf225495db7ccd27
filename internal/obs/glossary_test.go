package obs

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestGlossaryNamesEveryCounter holds docs/OBSERVABILITY.md's counter
// glossary to the registry: every counter and gauge name an export,
// /stats.json or /metrics can carry has a row there, so a slot added
// here without its meaning written down fails.
func TestGlossaryNamesEveryCounter(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Counter glossary\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no \"## Counter glossary\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	named := map[string]bool{}
	backticked := regexp.MustCompile("`([a-z0-9_]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			named[m[1]] = true
		}
	}
	var names []string
	names = append(names, counterNames[:]...)
	names = append(names, gaugeNames[:]...)
	for _, name := range names {
		if !named[name] {
			t.Errorf("%s has no row in docs/OBSERVABILITY.md's counter glossary", name)
		}
	}
}
