package surface

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// gap is the space between two words of a pointer, which may wrap onto
// the next line of a Go or Makefile comment.
const gap = `(?:\s|//|#)+`

var (
	// docPointer is a pointer into docs/: a whole file, or a heading of
	// it by its anchor.
	docPointer = regexp.MustCompile(`docs/[A-Za-z0-9_-]+\.md(#[A-Za-z0-9_-]+)?`)
	// designPointer is a pointer to a numbered section of DESIGN.md.
	designPointer = regexp.MustCompile(`DESIGN` + gap + `§([0-9]+[a-z]?)`)
	// quotedPointer is the form pointers used to take, a file or section
	// followed by a quoted heading, which nothing checks.
	quotedPointer = regexp.MustCompile(`(docs/[A-Za-z0-9_-]+\.md|DESIGN(\.md)?(` + gap + `§[0-9]+[a-z]?)?),?` + gap + `\(?["“]`)
)

// proseFiles are the documents whose pointers are checked besides every
// Go file and the Makefile. ROADMAP.md and CHANGES.md are history: they
// name headings as they were.
var proseFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocPointersResolve holds every pointer into the prose to a heading
// that exists: docs/FILE.md#anchor resolves through docSection, a bare
// docs/FILE.md to a file, and DESIGN §N to DESIGN.md's "## N." heading.
// A heading quoted after a file name or section is refused, since a
// renamed heading would leave it pointing nowhere unnoticed.
func TestDocPointersResolve(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"Makefile"}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	for _, d := range docs {
		files = append(files, filepath.Join("docs", filepath.Base(d)))
	}
	files = append(files, proseFiles...)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pointers := 0
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		at := func(i int) string { return file + ":" + strconv.Itoa(1+strings.Count(text[:i], "\n")) }
		for _, m := range quotedPointer.FindAllStringIndex(text, -1) {
			t.Errorf("%s: %q quotes a heading; point at it as docs/FILE.md#anchor or DESIGN §N", at(m[0]), text[m[0]:m[1]])
		}
		for _, m := range docPointer.FindAllStringIndex(text, -1) {
			ref := text[m[0]:m[1]]
			if strings.HasPrefix(ref, "docs/FILE.md") {
				continue // the form itself, as the docs spell it
			}
			pointers++
			if !strings.Contains(ref, "#") {
				if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
					t.Errorf("%s: %v", at(m[0]), err)
				}
			} else if _, err := docSection(root, ref); err != nil {
				t.Errorf("%s: %v", at(m[0]), err)
			}
		}
		for _, m := range designPointer.FindAllStringSubmatchIndex(text, -1) {
			pointers++
			if section := text[m[2]:m[3]]; !strings.Contains("\n"+string(design), "\n## "+section+". ") {
				t.Errorf("%s: DESIGN §%s: DESIGN.md has no \"## %s.\" heading", at(m[0]), section, section)
			}
		}
	}
	t.Logf("%d pointers into the prose checked, over %d files", pointers, len(files))
}
