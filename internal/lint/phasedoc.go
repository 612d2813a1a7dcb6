package lint

import (
	"regexp"
	"strings"
)

// phaseRef matches a reference to a paper phase: "P1".."P4", including
// compounds like "P1–P4" or "P3.3".
var phaseRef = regexp.MustCompile(`\bP[1-4]\b`)

// concurrencyRef matches the "Concurrency:" contract paragraph marker.
var concurrencyRef = regexp.MustCompile(`(?m)^Concurrency:`)

// PhaseDoc enforces the engine room's documentation contract: every
// internal package carries a package doc comment that (a) maps the package
// to the paper phase(s) P1–P4 it serves and (b) states its concurrency
// contract behind a "Concurrency:" marker. Command packages (package main)
// and packages outside internal/ are exempt.
var PhaseDoc = &Analyzer{
	Name: "phasedoc",
	Doc: "check that internal packages document their paper phase (P1–P4) " +
		"and a Concurrency: contract",
	Run: runPhaseDoc,
}

func runPhaseDoc(pass *Pass) error {
	if !strings.Contains(pass.ImportPath, "internal/") {
		return nil
	}
	if len(pass.Files) == 0 || pass.Files[0].Name.Name == "main" ||
		strings.HasSuffix(pass.Files[0].Name.Name, "_test") {
		return nil
	}
	// The package doc is the longest package comment across files, matching
	// the convention of a dedicated doc-bearing file.
	var doc string
	docAt := pass.Files[0].Package
	for _, f := range pass.Files {
		if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
			doc = f.Doc.Text()
			docAt = f.Package
		}
	}
	if doc == "" {
		pass.Reportf(docAt, "package %s has no package doc comment", pass.Files[0].Name.Name)
		return nil
	}
	if !phaseRef.MatchString(doc) {
		pass.Reportf(docAt, "package doc does not reference a paper phase (P1–P4)")
	}
	if !concurrencyRef.MatchString(doc) {
		pass.Reportf(docAt, "package doc has no \"Concurrency:\" contract paragraph")
	}
	return nil
}
