// The pre-fast-path transport settings, for tests whose subject is the
// legacy protocol: golden hashes captured on it, exact CommStats parity
// across drive modes, rendezvous reference legs. The library defaults are
// the eager/coalesced transport (core/options.hpp); these tests pin the
// old wire protocol explicitly so they keep checking what they name.
#pragma once

#include "core/options.hpp"

namespace sympack {

/// Pure rendezvous (paper Fig. 4): no eager inlining, no coalescing.
inline core::CommOptions legacy_comm() {
  core::CommOptions comm;
  comm.eager_bytes = 0;
  comm.coalesce = false;
  return comm;
}

}  // namespace sympack
