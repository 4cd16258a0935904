// FSM recovery from a netlist — the front half of Yosys' fsm_detect /
// fsm_extract (§5.1 of the paper: "our custom FSM protection pass identifies
// the unprotected FSM by utilizing the existing Yosys FSM passes").
//
// Detection is structural: a candidate state register is a wire whose bits
// are all flip-flop outputs and whose next-state cone's flip-flop support is
// exactly the wire itself (self-feeding and self-contained — datapath
// pipeline registers fail the self-feeding test, registers fed by other
// registers fail self-containment). Recovery is exhaustive simulation over
// the machine's input bits, BFS from the reset code, followed by
// adjacent-implicant cube compaction; the encoding of the discovered codes
// is classified as binary / one-hot / other.
//
// Two entry points share that recovery and differ only in which port bits
// become the machine's inputs and outputs:
//  - extract_fsms() discovers every candidate and keeps only the cone-
//    relevant ports: the input bits of the next-state cone and of the
//    captured outputs, and the outputs that depend on this register and on
//    no other state;
//  - extract_fsm() recovers one named state register and keeps the module's
//    whole interface: every input bit and every output bit, constant or
//    irrelevant ones included, so the machine is a drop-in model of the
//    module (what the SCFI pass in core/pass.h hardens).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/fsm.h"
#include "rtlil/module.h"

namespace scfi::fsm {

enum class StateEncoding : std::uint8_t {
  kBinary,  ///< codes are exactly {0, ..., n-1}
  kOneHot,  ///< every code has exactly one bit set
  kOther,
};

const char* encoding_name(StateEncoding encoding);

struct ExtractOptions {
  int max_inputs = 14;   ///< exhaustive 2^n bound on the machine's input bits
  int max_states = 256;  ///< reachable-state bound (runaway counters)
  bool capture_outputs = true;
};

/// One recovered machine. `state_codes[i]` is the register code of
/// `fsm.states[i]` (named "s<code>", reset state first).
struct ExtractedFsm {
  std::string state_wire;
  StateEncoding encoding = StateEncoding::kOther;
  std::vector<std::uint64_t> state_codes;
  Fsm fsm;
};

/// Structural scan only (no simulation): names of candidate state-register
/// wires, in module wire order. Empty when the module has no FSM.
std::vector<std::string> find_state_registers(const rtlil::Module& module);

/// Recovers every candidate state register as an Fsm (validated by
/// Fsm::check) over its cone-relevant ports. A module with no FSM yields an
/// empty vector without error; a candidate exceeding the exhaustive bounds
/// throws ScfiError.
std::vector<ExtractedFsm> extract_fsms(const rtlil::Module& module,
                                       const ExtractOptions& options = {});

/// Recovers the FSM held in `state_wire` over the module's whole interface
/// (port names: the wire name for 1-bit ports, "wire[i]" otherwise, in
/// module wire order). Throws ScfiError naming the wire when it is missing
/// or is not a self-feeding flip-flop register, and on exceeded bounds.
ExtractedFsm extract_fsm(const rtlil::Module& module, const std::string& state_wire,
                         const ExtractOptions& options = {});

}  // namespace scfi::fsm
