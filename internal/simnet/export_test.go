package simnet

// Sent reports the messages this endpoint has sent.
func (ep *Endpoint) Sent() int64 { return ep.sent }
