package sim

// FaultAction is the verdict a transport-layer fault filter returns for one
// outgoing message. Faults model the adversarial channel of Section 3.3:
// channels may lose, duplicate and reorder messages, and self-stabilization
// must absorb all of it once the faults stop.
type FaultAction uint8

const (
	// FaultDeliver lets the message through unchanged.
	FaultDeliver FaultAction = iota
	// FaultDrop loses the message (counted as a drop by the substrate).
	FaultDrop
	// FaultDup delivers the message twice, each copy independently delayed.
	FaultDup
	// FaultDelay holds the message back by several timeout intervals before
	// delivery, so later traffic overtakes it (reordering).
	FaultDelay
)

// String names the action for scenario traces.
func (a FaultAction) String() string {
	switch a {
	case FaultDeliver:
		return "deliver"
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// FaultFunc inspects an outgoing message after the send-side accounting and
// decides its fate. It must be fast and must not call back into the
// substrate. A nil FaultFunc means a healthy channel.
//
// On the deterministic engine the filter runs on the lane executing the
// sender (the driver goroutine when the engine is built with one worker);
// on the live substrates it runs on whichever goroutine sends, so an
// installed filter must be safe for concurrent use.
type FaultFunc func(m Message) FaultAction

// FaultInjectable is implemented by every execution substrate that supports
// transport-layer fault injection (the chaos engine drives it through this
// interface).
type FaultInjectable interface {
	// SetFault installs (or, with nil, removes) the fault filter. Replacing
	// a filter takes effect for subsequent sends; messages already delayed
	// by a previous filter still arrive.
	SetFault(f FaultFunc)
}
