// Package analysistest runs a flashvet analyzer over a fixture package
// and checks its diagnostics against `// want "regexp"` comments, the
// same convention as golang.org/x/tools/go/analysis/analysistest (which
// this repo cannot depend on — see internal/analysis/flashvet).
//
// A fixture line that should be reported carries a trailing comment:
//
//	_ = time.Now() // want `wall clock`
//
// The quoted pattern is a regular expression matched against every
// diagnostic reported on that line; both `...` and "..." quoting work,
// and one comment may carry several patterns. Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the
// test — so fixtures double as positive AND negative coverage: a clean
// line with no want comment asserts the analyzer stays silent on it.
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"ppbflash/internal/analysis/flashvet"
)

// want is one expectation: a diagnostic matching re on file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture directory as one package, applies the analyzer,
// and reports any mismatch between diagnostics and want comments.
//
//flashvet:testonly every analyzer's fixture test calls it
func Run(t *testing.T, fixtureDir string, analyzer *flashvet.Analyzer) {
	t.Helper()
	prog, err := flashvet.LoadFixture(fixtureDir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	wants := collectWants(t, prog)
	diags, err := flashvet.Run(prog, []*flashvet.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}
	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on the diagnostic's line whose
// pattern matches; it reports whether one was found.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every `// want` comment of the fixture.
func collectWants(t *testing.T, prog *flashvet.Program) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					patterns, err := parsePatterns(strings.TrimPrefix(text, "want "))
					if err != nil {
						t.Fatalf("%s: %v", pos, err)
					}
					for _, p := range patterns {
						re, err := regexp.Compile(p)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, p, err)
						}
						wants = append(wants, &want{
							file: pos.Filename, line: pos.Line, re: re, raw: p,
						})
					}
				}
			}
		}
	}
	return wants
}

// parsePatterns splits `"re1" "re2"` / backquoted variants into the raw
// pattern strings.
func parsePatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want patterns must be quoted, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
