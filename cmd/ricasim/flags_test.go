package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsTableNamesEveryFlag holds docs/OPERATIONS.md's two flags
// tables to the flag sets the binary registers: every flag of ricasim
// and of `ricasim serve` has a row in its own table, with its default,
// and no row names a flag that does not exist.
func TestFlagsTableNamesEveryFlag(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Flags\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no \"## Flags\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	cli := flag.NewFlagSet("ricasim", flag.ContinueOnError)
	new(options).define(cli)
	srv := flag.NewFlagSet("ricasim serve", flag.ContinueOnError)
	new(serveOptions).define(srv)
	for _, table := range []struct {
		heading string
		fs      *flag.FlagSet
	}{
		{"\n### `ricasim` flags\n", cli},
		{"\n### `ricasim serve` flags\n", srv},
	} {
		_, rows, ok := strings.Cut(section, table.heading)
		if !ok {
			t.Errorf("the flags section has no %q table", strings.TrimSpace(table.heading))
			continue
		}
		rows, _, _ = strings.Cut(rows, "\n#")
		named := map[string]bool{}
		for _, line := range strings.Split(rows, "\n") {
			cells := strings.Split(line, "|")
			if len(cells) < 4 || cells[0] != "" || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "flag" {
				continue
			}
			name, ok := strings.CutPrefix(strings.TrimSpace(cells[1]), "`-")
			name, ok2 := strings.CutSuffix(name, "`")
			f := table.fs.Lookup(name)
			if !ok || !ok2 || f == nil {
				t.Errorf("%s row %q names no %s flag", strings.TrimSpace(table.heading), strings.TrimSpace(cells[1]), table.fs.Name())
				continue
			}
			named[name] = true
			want := "(empty)"
			if f.DefValue != "" {
				want = "`" + f.DefValue + "`"
			}
			if got := strings.TrimSpace(cells[2]); got != want {
				t.Errorf("-%s: the table's default is %s, the flag's is %s", name, got, want)
			}
		}
		table.fs.VisitAll(func(f *flag.Flag) {
			if !named[f.Name] {
				t.Errorf("%s -%s has no row in docs/OPERATIONS.md's flags table", table.fs.Name(), f.Name)
			}
		})
	}
}
