package lint

import (
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backtick-delimited expectation regexps of a
// `// want ...` comment. A line may carry several expectations.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectation is one // want entry: a regexp the diagnostic message on
// that (file, line) must match.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants collects the // want expectations of a loaded package.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				text := c.Text
				idx := strings.Index(text, "want `")
				if idx < 0 {
					continue
				}
				ms := wantRe.FindAllStringSubmatch(text[idx:], -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without a backtick-quoted pattern: %s", pos, text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// corpusCases maps each analyzer to its fixture directory and the
// synthetic import path that places the fixture in (or out of) the
// analyzer's scope.
var corpusCases = []struct {
	analyzer   string
	dir        string
	importPath string
}{
	{"maprange", "testdata/maprange", "jobsched/internal/sim/fixture"},
	{"wallclock", "testdata/wallclock", "jobsched/internal/workload/fixture"},
	{"wallclock", "testdata/wallclock_allow", "jobsched/internal/sim"},
	{"wallclock", "testdata/wallclock_transitive", "jobsched/internal/sim"},
	{"telemetryguard", "testdata/telemetryguard", "jobsched/internal/sched/fixture"},
	{"checkedarith", "testdata/checkedarith", "jobsched/internal/objective/fixture"},
	{"checkedarith", "testdata/checkedarith_helpers", "jobsched/internal/job"},
	{"simpurity", "testdata/simpurity", "jobsched/internal/profile/fixture"},
	{"simpurity", "testdata/simpurity_transitive", "jobsched/internal/sched/fixture"},
	{"passprotocol", "testdata/passprotocol", "jobsched/internal/sched/fixture"},
	{"streamcontract", "testdata/streamcontract", "jobsched/internal/cli/fixture"},
	{"streamcontract", "testdata/streamcontract_sim", "jobsched/internal/sim"},
	{"journalsync", "testdata/journalsync", "jobsched/internal/eval/fixture"},
	{"errflow", "testdata/errflow", "jobsched/internal/trace/fixture"},
}

// TestAnalyzerCorpus runs every analyzer over its golden fixture
// directory and checks the findings against the // want annotations:
// every expectation must be matched by a diagnostic on its line, and
// every diagnostic must be expected.
func TestAnalyzerCorpus(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := LoadDir(tc.dir, tc.importPath)
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			analyzers, err := ByName(tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			res := Run([]*Package{pkg}, analyzers)
			wants := parseWants(t, pkg)

			for _, d := range res.Diagnostics {
				found := false
				for _, w := range wants {
					if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
						continue
					}
					if w.pattern.MatchString(d.Message) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a %s diagnostic matching %q, got none",
						w.file, w.line, tc.analyzer, w.pattern)
				}
			}
			if len(res.Suppressed) != 0 {
				t.Errorf("corpus fixtures must not use suppressions, got %d", len(res.Suppressed))
			}
		})
	}
}

// TestScopeFiltering re-loads an analyzer's corpus under an import path
// outside its scope: every finding must vanish. This pins the scoping
// logic itself (a regression here would silently blind the gate).
func TestScopeFiltering(t *testing.T) {
	cases := []struct {
		analyzer string
		dir      string
		path     string
	}{
		{"maprange", "testdata/maprange", "jobsched/cmd/render"},
		{"checkedarith", "testdata/checkedarith", "jobsched/internal/stats"},
		{"simpurity", "testdata/simpurity", "jobsched/internal/cli"},
		{"wallclock", "testdata/wallclock", "jobsched/cmd/evaluate"},
		{"passprotocol", "testdata/passprotocol", "jobsched/internal/profile"},
		{"streamcontract", "testdata/streamcontract_sim", "jobsched/internal/stats"},
		{"journalsync", "testdata/journalsync", "jobsched/internal/sim"},
		{"errflow", "testdata/errflow", "jobsched/internal/cli"},
	}
	for _, tc := range cases {
		pkg, err := LoadDir(tc.dir, tc.path)
		if err != nil {
			t.Fatalf("loading corpus: %v", err)
		}
		analyzers, err := ByName(tc.analyzer)
		if err != nil {
			t.Fatal(err)
		}
		res := Run([]*Package{pkg}, analyzers)
		if len(res.Diagnostics) != 0 {
			t.Errorf("%s out of scope as %s: want 0 diagnostics, got %d (first: %s)",
				tc.dir, tc.path, len(res.Diagnostics), res.Diagnostics[0])
		}
	}
}

// TestCorpusCoversAllAnalyzers keeps the corpus honest: adding an
// analyzer without fixtures must fail the suite.
func TestCorpusCoversAllAnalyzers(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range corpusCases {
		covered[tc.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no corpus entry in corpusCases", a.Name)
		}
	}
}

// TestAnalyzerMetadata pins names and docs (they appear in directives
// and diagnostics, so renames are breaking changes).
func TestAnalyzerMetadata(t *testing.T) {
	want := []string{"maprange", "wallclock", "telemetryguard", "checkedarith", "simpurity",
		"passprotocol", "streamcontract", "journalsync", "errflow"}
	all := Analyzers()
	if len(all) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch) should fail")
	}
}
