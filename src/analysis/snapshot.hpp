// Exact network snapshot: a lossless structural serialization.
//
// BLIF is the interchange format, but it is not structure-preserving —
// the reader re-elaborates covers into fresh AND/OR/NOT trees, so gate
// identities (and with them fault coordinates) do not survive a round
// trip. The snapshot keeps them: live gates in topological order, each
// line naming the kind and the fanin pins (as snapshot indices, in pin
// order). read_snapshot() reconstructs a Network whose gate i is exactly
// the snapshot's gate i — kinds, pin order, fanout structure and
// interface membership all preserved. The durability layer digests the
// snapshot to check that a resumed session replayed its journal back to
// the exact structure its checkpoint recorded (src/recover/).
#pragma once

#include <string>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms::analysis {

/// Live gates in the order their snapshot indices count through: the
/// network's topological order. Index in this vector == snapshot index.
std::vector<GateId> snapshot_order(const Network& net);

/// Serialize the live structure of `net` ("kms-snapshot v1").
std::string write_snapshot(const Network& net);

/// Parse a snapshot back into a Network whose GateId::value() equals
/// the snapshot index for every gate. Throws std::runtime_error on
/// malformed input.
Network read_snapshot(const std::string& text);

}  // namespace kms::analysis
