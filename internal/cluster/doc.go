// Package cluster is the distributed-serving substrate for sstad: a
// health-checked worker pool with consistent-hash placement, speaking
// plain HTTP/1.1 to workers that serve the sstad API.
//
// Pool keeps one keep-alive http.Transport for every node, dialing
// through PoolConfig.Dial (so NewFaultDialer can inject dropped, torn
// or slow connections). Each node is health-checked with a periodic
// GET /healthz, and keys are placed with a consistent-hash ring
// (virtual nodes) so session affinity survives membership changes with
// minimal reshuffling. Pool.Do is one request/response exchange that
// delivers an event-stream answer one event at a time; Pool is also an
// http.RoundTripper, so an httputil.ReverseProxy can run on it. Both
// count the exchange on the node, and a transport failure demotes the
// node until its next successful ping. A worker's non-2xx answer is a
// *StatusError and leaves the node healthy.
//
// Serve runs an http.Server for a handler on a listener and closes live
// connections when its context ends.
//
// Dispatch policy — retry, failover, local fallback — belongs to the
// caller; the pool only reports node health and moves requests. The
// package knows nothing about timing analysis: methods are
// "METHOD /path" strings, bodies are bytes.
package cluster
