package ring

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler serves r as JSON under the cursor protocol. GET returns every
// retained record, rendered by render, oldest first; ?since=<seq>
// returns only the records published after seq (pass the previous
// response's "last"). The envelope is
//
//	{"last": …, "missed": …, "dropped": …, "<key>": [ … ]}
//
// where last is the newest sequence number, missed counts requested
// records the ring overwrote before this read and dropped is the
// ring-lifetime overwrite total. A cursor that is not a uint64 is a
// 400. Nil-safe: a nil ring serves zeros and an empty array.
func Handler[R, J any](r *Ring[R], key string, render func(*R) J) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		since := req.URL.Query().Get("since")
		cursor, err := strconv.ParseUint(since, 10, 64)
		if err != nil && since != "" {
			http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		recs, last, missed := r.Since(cursor, nil)
		out := make([]J, len(recs))
		for i := range recs {
			out[i] = render(&recs[i])
		}
		body, err := json.Marshal(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\"last\":%d,\"missed\":%d,\"dropped\":%d,%q:%s}\n", last, missed, r.Dropped(), key, body)
	})
}
