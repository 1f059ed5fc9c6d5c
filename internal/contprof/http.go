package contprof

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// Handler serves the retention ring over HTTP, for mounting on the
// serving mux at /debug/contprof/ (which redirects a bare /debug/contprof
// there):
//
//	GET  /debug/contprof/                     ring listing (JSON metas)
//	GET  /debug/contprof/fetch?id=&kind=      one raw pprof file
//	POST /debug/contprof/trigger?reason=&detail=  request a capture
//
// Fetch resolves ids through the in-memory ring only — never by
// joining request input into a path — so the handler cannot be walked
// out of the ring directory.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p == nil {
			http.Error(w, "continuous profiling disabled", http.StatusNotFound)
			return
		}
		// Route on the path suffix so the handler works under any
		// mount prefix (http.ServeMux strips nothing here).
		switch {
		case strings.HasSuffix(r.URL.Path, "/fetch"):
			p.handleFetch(w, r)
		case strings.HasSuffix(r.URL.Path, "/trigger"):
			p.handleTrigger(w, r)
		default:
			p.handleList(w, r)
		}
	})
}

func (p *Profiler) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // client gone mid-write
		Dir      string  `json:"dir"`
		Captures []*Meta `json:"captures"`
	}{p.cfg.Dir, p.List()})
}

func (p *Profiler) handleFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	kind := r.URL.Query().Get("kind")
	m := p.Lookup(id)
	if m == nil {
		http.Error(w, "unknown capture id", http.StatusNotFound)
		return
	}
	file, ok := m.Profiles[kind]
	if !ok {
		http.Error(w, "capture has no such profile kind", http.StatusNotFound)
		return
	}
	data, err := os.ReadFile(filepath.Join(p.cfg.Dir, file))
	if err != nil {
		// Pruned between Lookup and read: the ring moved on.
		http.Error(w, "capture no longer retained", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+file+`"`)
	w.Write(data) //nolint:errcheck // client gone mid-write
}

func (p *Profiler) handleTrigger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = TriggerManual
	}
	if !reasonRe.MatchString(reason) {
		http.Error(w, "invalid reason", http.StatusBadRequest)
		return
	}
	detail := r.URL.Query().Get("detail")
	if len(detail) > 256 {
		detail = detail[:256]
	}
	scheduled := p.Trigger(reason, detail, r.Header.Get("X-Request-Id"))
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusAccepted
	if !scheduled {
		// Deduplicated or coalesced — a capture for this storm already
		// exists or is in flight. Not an error.
		status = http.StatusOK
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"scheduled": scheduled,
		"reason":    reason,
	})
}
