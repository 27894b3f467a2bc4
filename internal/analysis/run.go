package analysis

import (
	"fmt"
	"go/token"
	"sort"

	"continustreaming/internal/analysis/directive"
)

// Finding is one confirmed diagnostic: a raw analyzer report that no
// reasoned suppression directive covers.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer (subject to its package filter) to
// every package, resolves suppression directives, and returns the
// surviving findings in file/line order.
//
// Suppression is resolved here rather than in the analyzers so the
// policy is uniform: a `//continulint:<name> <reason>` directive on the
// finding's line or the line above silences that analyzer's finding; the
// same directive without a reason is converted into a finding of its
// own, so undocumented exceptions cannot accumulate. Once a package's
// analyzers have run, every directive in it that silenced nothing is a
// finding too (staleDirectives), so an exception outlives neither the
// code it excused nor the analyzer it names.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		dirs := directive.Build(pkg.Fset, pkg.Files)
		used := map[token.Pos]bool{}
		for _, a := range analyzers {
			if a.Filter != nil && !a.Filter(pkg.Path) {
				continue
			}
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.Path,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range raw {
				pos := pkg.Fset.Position(d.Pos)
				if sup, ok := dirs.For(a.Name, pos); ok {
					used[sup.Pos] = true
					if sup.Reason != "" {
						continue
					}
					// Anchor at the silenced diagnostic, not the comment: the
					// mistake only matters at the site it fails to cover.
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Pos:      pos,
						Message:  fmt.Sprintf("suppression directive %s%s needs a reason", directive.Prefix[2:], a.Name),
					})
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		findings = append(findings, staleDirectives(pkg, dirs, used, analyzers)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// staleDirectives reports every directive of pkg that silenced no finding
// (used holds the positions of those that did): one whose analyzer ran on
// the package and found nothing there, one whose analyzer's filter skips
// the package, and one naming no analyzer in the run. The finding sits on
// the directive, the line to delete.
func staleDirectives(pkg *Package, dirs directive.Index, used map[token.Pos]bool, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, byLine := range dirs {
		for _, d := range byLine {
			if used[d.Pos] {
				continue
			}
			name := directive.Prefix[2:] + d.Analyzer
			msg := fmt.Sprintf("directive %s names no registered analyzer", name)
			for _, a := range analyzers {
				if a.Name != d.Analyzer {
					continue
				}
				msg = fmt.Sprintf("directive %s suppresses no finding; delete it", name)
				if a.Filter != nil && !a.Filter(pkg.Path) {
					msg = fmt.Sprintf("directive %s suppresses nothing: %s does not run on %s", name, a.Name, pkg.Path)
				}
			}
			findings = append(findings, Finding{Analyzer: d.Analyzer, Pos: pkg.Fset.Position(d.Pos), Message: msg})
		}
	}
	return findings
}
