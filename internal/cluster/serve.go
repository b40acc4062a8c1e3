package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Serve runs an HTTP server for h on ln until ctx ends or the listener
// fails. When ctx ends it closes the listener and every live connection,
// so in-flight handlers see their request contexts canceled. It returns
// nil after a clean shutdown and the accept error otherwise.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	stop := context.AfterFunc(ctx, func() { hs.Close() })
	defer stop()
	defer hs.Close()
	err := hs.Serve(ln)
	if ctx.Err() != nil || errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
