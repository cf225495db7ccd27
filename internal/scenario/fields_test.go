package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestFieldReferenceNamesEveryField holds docs/SCENARIOS.md's field
// reference to the spec: every JSON field a scenario file can carry —
// each tag reachable from Spec, through nested objects and arrays — is
// named backticked between "## Top-level fields" and the built-in
// catalog, so a field added here without its meaning written down
// fails.
func TestFieldReferenceNamesEveryField(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SCENARIOS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(doc), "\n## Top-level fields\n")
	if !ok {
		t.Fatal("docs/SCENARIOS.md has no \"## Top-level fields\" section")
	}
	ref, _, ok = strings.Cut(ref, "\n## Built-in catalog")
	if !ok {
		t.Fatal("docs/SCENARIOS.md has no \"## Built-in catalog\" section after its field reference")
	}
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				continue
			}
			if !strings.Contains(ref, "`"+name+"`") {
				t.Errorf("%s%s (%s.%s) is not named in docs/SCENARIOS.md's field reference", path, name, typ.Name(), f.Name)
			}
			walk(f.Type, path+name+".")
		}
	}
	walk(reflect.TypeOf(Spec{}), "")
	if len(seen) < 9 {
		t.Fatalf("walked %d object types from Spec, want the 9 a scenario file nests", len(seen))
	}
}
