package obs

import (
	"bufio"
	"io"
	"log"
	"net/http"
	"strconv"
)

// textContentType is the Prometheus text exposition content type.
const textContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the text exposition
// format, families in registration order, series in registration order
// within a family. Values are snapshotted per series; a scrape is not a
// consistent cut across series (no metrics system promises that).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.fams[name]
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, ls := range f.order {
			s := f.series[ls]
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", ls, float64(s.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", ls, float64(s.g.Value()))
			case kindGaugeFunc:
				if s.fn != nil {
					writeSample(bw, f.name, "", ls, s.fn())
				}
			case kindHistogram:
				if s.h != nil { // Histogram sets it just after lookup publishes s
					writeHistogram(bw, f.name, ls, s.h)
				}
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name[suffix]{labels} value` line.
func writeSample(w *bufio.Writer, name, suffix, labels string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name, "_bucket", mergeLabels(labels, "le", strconv.FormatFloat(b, 'g', -1, 64)), float64(cum))
	}
	count := h.Count()
	writeSample(w, name, "_bucket", mergeLabels(labels, "le", "+Inf"), float64(count))
	writeSample(w, name, "_sum", labels, h.Sum())
	writeSample(w, name, "_count", labels, float64(count))
}

// mergeLabels appends one pair to an already-rendered label string.
func mergeLabels(labels, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// ServeHTTP makes a Registry a /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", textContentType)
	if err := r.WritePrometheus(w); err != nil {
		log.Printf("obs: write metrics: %v", err)
	}
}
