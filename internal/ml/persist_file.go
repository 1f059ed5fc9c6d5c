package ml

import (
	"encoding/json"
	"fmt"

	"emgo/internal/ckpt"
)

// SaveMatcherFile persists a fitted (serializable) matcher to path as
// JSON. The write is crash-safe — temp file, fsync, atomic rename —
// so a crash mid-save can never leave a truncated model file for the
// next deploy to choke on (the same guarantee table.WriteCSVFile and
// the checkpoint store give their artifacts).
func SaveMatcherFile(path string, m Matcher) error {
	spec, err := ExportMatcher(m)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(path, append(data, '\n'), 0o644)
}

// LoadMatcherBytes rebuilds a matcher from the bytes of a file saved
// with SaveMatcherFile (the serving hot-reload path reads once so it can
// checksum and decode the same bytes). name labels errors, usually the
// source path; bytes that do not decode into a valid matcher spec report
// a descriptive error rather than a zero-value model.
func LoadMatcherBytes(name string, data []byte) (Matcher, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ml: model file %s is empty", name)
	}
	var spec MatcherSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("ml: parse model file %s: %w", name, err)
	}
	m, err := ImportMatcher(&spec)
	if err != nil {
		return nil, fmt.Errorf("ml: model file %s: %w", name, err)
	}
	return m, nil
}
