package scenario

// The protocol registry is populated by the protocol packages' init
// functions. QMA and the CSMA/CA variants are linked through scenario.go's
// regular imports (their registry keys back the QMA, CSMASlotted and
// CSMAUnslotted constants); every further protocol is linked by one blank
// import below.
//
// Adding a MAC protocol therefore touches exactly two places: the protocol's
// own package (which embeds mac.Base, implements mac.Engine and calls
// mac.Register from an init function) and one import line here. No
// scenario/dsme/cmd plumbing changes are needed — see README.md, "Adding a
// MAC protocol".
import (
	_ "qma/internal/aloha"  // registers "aloha" and "slotted-aloha"
	_ "qma/internal/bandit" // registers "bandit"
	_ "qma/internal/noma"   // registers "noma" (power-level Q-learning)
)
