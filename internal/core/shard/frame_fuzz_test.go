package shard

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzFrame feeds arbitrary bytes to the frame reader, to the client as
// the daemon's side of a request stream, and to a daemon's first-frame
// dispatch as a fresh connection. None of them may panic or hang.
func FuzzFrame(f *testing.F) {
	cell := `{"module":"A","test":"T","deriv":"d","platform":"golden"}`
	plan := `{"type":"plan","plan":{"version":2,"label":"x","epoch":"e","workers":1,"cells":[` + cell + `]}}` + "\n"
	outcome := `{"kind":"outcome","module":"A","test":"T","deriv":"d","platform":"golden","status":"passed"}`
	for _, seed := range []string{
		"",
		"not json\n",
		plan + `{"type":"ping"}` + "\n" +
			`{"type":"result","result":{"id":0,"records":[{"kind":"start","module":"A"}]}}` + "\n" +
			`{"type":"done","done":{"passed":1}}` + "\n",
		`{"type":"plan","plan":{"version":2,"cells":[` + cell + `],"dispatch":[3]}}` + "\n" +
			`{"type":"done"}` + "\n",
		`{"type":"error","error":"refused"}` + "\n",
		`{"type":"request","request":{"label":"x"}}` + "\n",
		`{"type":"hello","hello":{"role":"worker"}}` + "\n" + `{"type":"result"}` + "\n",
		`{"type":"hello","hello":{"role":"store"}}` + "\n" +
			`{"type":"store-put","store":{"key":"k","data":"AA==","sum":"x"}}` + "\n" +
			`{"type":"store-get","store":{"key":"k"}}` + "\n" + `{"type":"job"}` + "\n",
		plan + `{"type":"result","result":{"id":0,"records":[` + outcome + `]}}` + "\n" +
			`{"type":"done","done":{"passed":1}}` + "\n",
		plan + `{"type":"result","result":{"id":0,"records":[]}}` + "\n" + `{"type":"done","done":{"passed":1}}` + "\n",
		plan + `{"type":"result","result":{"id":0,"records":[` + outcome + `,` + outcome + `]}}` + "\n" +
			`{"type":"done","done":{"passed":1}}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every read consumes at least a byte until EOF; the bound stops a
		// reader stuck on a scanner error.
		conn := NewConn(bytes.NewReader(data), io.Discard)
		for i := 0; i <= len(data); i++ {
			if _, err := conn.Read(); err == io.EOF {
				break
			}
		}

		request(NewConn(bytes.NewReader(data), io.Discard), Request{Label: "fuzz"}, func(*Result) {})

		d := &Daemon{Store: &memBackend{store: map[string][]byte{}}, RequestTimeout: time.Second}
		server, client := net.Pipe()
		handled, drained := make(chan struct{}), make(chan struct{})
		go func() {
			d.handleConn(server)
			close(handled)
		}()
		go func() {
			io.Copy(io.Discard, client)
			close(drained)
		}()
		client.Write(data)
		client.Close()
		<-handled
		<-drained
	})
}
