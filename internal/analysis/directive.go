package analysis

import (
	"os"
	"strings"
)

// ignorePrefix is the suppression directive marker. The full form is
//
//	//dynplace:ignore <analyzer> <reason>
//
// written either as a trailing comment on the offending line or as a
// comment line directly above it (blank and comment-only lines in
// between are skipped, so a directive works from inside a larger
// comment block).
const ignorePrefix = "//dynplace:ignore"

// directive is one parsed, validated suppression.
type directive struct {
	file       string
	analyzer   string
	reason     string
	targetLine int // the code line the directive suppresses
}

// scanDirectives extracts every //dynplace:ignore directive from the
// package's files. Malformed directives — unknown analyzer name,
// missing reason — are returned as unsuppressable findings under
// DirectiveAnalyzer.
func scanDirectives(pkg *Package, known map[string]bool) ([]directive, []Diagnostic) {
	var out []directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		lines := fileLines(filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //dynplace:ignorexyz — not this directive
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: DirectiveAnalyzer,
						Message:  "dynplace:ignore needs an analyzer name and a reason",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: DirectiveAnalyzer,
						Message:  "dynplace:ignore names unknown analyzer \"" + name + "\"",
					})
					continue
				}
				if len(fields) == 1 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: DirectiveAnalyzer,
						Message:  "dynplace:ignore " + name + " needs a reason",
					})
					continue
				}
				out = append(out, directive{
					file:       pos.Filename,
					analyzer:   name,
					reason:     strings.Join(fields[1:], " "),
					targetLine: targetLine(lines, pos.Line, pos.Column),
				})
			}
		}
	}
	return out, bad
}

// fileLines returns the file split into lines, or nil if unreadable
// (the directive then only matches its own line).
func fileLines(name string) []string {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil
	}
	return strings.Split(string(data), "\n")
}

// targetLine computes which code line a directive at (line, col)
// covers: its own line when code precedes the comment (trailing
// form), otherwise the next line that is neither blank nor
// comment-only.
func targetLine(lines []string, line, col int) int {
	if line-1 < len(lines) {
		before := strings.TrimSpace(lines[line-1][:min(col-1, len(lines[line-1]))])
		if before != "" {
			return line // trailing comment on a code line
		}
	}
	for next := line + 1; next <= len(lines); next++ {
		text := strings.TrimSpace(lines[next-1])
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		return next
	}
	return line
}
