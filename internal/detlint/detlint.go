// Package detlint bundles the simulator's custom determinism, ABI and
// trace-discipline analyzers behind one registry, plus the driver logic
// shared by the cmd/detlint binary and the repo-wide cleanliness test.
//
// The invariants encoded here exist because their violations happened:
// PR 4 chased a scenario-checksum divergence to vGIC distributor
// programming that iterated a Go map; PR 7 found measure.Set.String()
// reading maps unlocked and unsorted; PR 8 added ABI statuses that only
// a dynamic test kept in sync with the StatusName table. detlint turns
// each of those archaeology sessions into a `go vet` failure.
package detlint

import (
	"fmt"
	"sort"

	"repro/internal/detlint/analysis"
	"repro/internal/detlint/exhauststatus"
	"repro/internal/detlint/load"
	"repro/internal/detlint/nohosttime"
	"repro/internal/detlint/nomaprange"
	"repro/internal/detlint/tracewriter"
)

// Analyzers returns the full detlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		exhauststatus.Analyzer,
		nohosttime.Analyzer,
		nomaprange.Analyzer,
		tracewriter.Analyzer,
	}
}

// Diagnostic is one formatted finding.
type Diagnostic struct {
	Position string // file:line:col
	Category string // analyzer name
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Category, d.Message)
}

// RunPackage applies every analyzer to one loaded package.
func RunPackage(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, Diagnostic{
				Position: pkg.Fset.Position(d.Pos).String(),
				Category: d.Category,
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	return out, nil
}

// Run loads patterns from dir and applies the whole suite, returning
// findings sorted by position.
func Run(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(pkg, Analyzers())
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Position != out[j].Position {
			return out[i].Position < out[j].Position
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
