package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// timing matches the only parts of a command's output that change from
// run to run of the same arguments: mcheck's prose "in 126ms (1583937
// configs/s" and the JSON fields elapsed_ms (mcheck -json) and wall_ms,
// configs_per_sec, allocs_per_state (sweep records).
var timing = regexp.MustCompile(`\bin \S+ \(\S+ configs/s|"(elapsed_ms|wall_ms|configs_per_sec|allocs_per_state)":-?[0-9][0-9.eE+-]*`)

// Scrub replaces the timing in a command's output with "_" and leaves
// every other byte as it is.
func Scrub(out string) string {
	return timing.ReplaceAllStringFunc(out, func(m string) string {
		if strings.HasPrefix(m, "in ") {
			return "in _ (_ configs/s"
		}
		return m[:strings.IndexByte(m, ':')+1] + "_"
	})
}

// Golden compares out, scrubbed of timing, with the golden file at path
// and reports the first line that differs. With update set it writes the
// scrubbed output to path instead.
func Golden(path, out string, update bool) error {
	got := Scrub(out)
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(got), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (go test -update writes it)", err)
	}
	if got == string(want) {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return fmt.Sprintf("%q", ls[i])
		}
		return "end of output"
	}
	return fmt.Errorf("%s:%d: got %s, want %s; whole output:\n%s", path, i+1, line(g), line(w), got)
}
