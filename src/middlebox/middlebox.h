// Middlebox modelling framework (section 4.1 of the paper).
//
// The paper validates MPTCP's design against Click elements modelling the
// middlebox behaviours its measurement study found in the wild: NATs,
// sequence-number rewriters, option strippers, segment splitters (TSO),
// segment coalescers (traffic normalizers), pro-active ACKers (proxies)
// and payload modifiers (application-level gateways). The same catalogue
// is implemented here as in-path elements for the simulator.
//
// Unidirectional elements derive from SimpleMiddlebox and are spliced into
// one direction of a path. Stateful elements that must observe both
// directions (NAT, sequence rewriting, proxies) derive from
// DuplexMiddlebox and expose separate forward/reverse sinks. Both build on
// the self-describing Middlebox base (sim/node.h): every spliceable
// element carries its own downstream pointer, so harness code chains
// elements uniformly with set_downstream()/downstream().
#pragma once

#include <functional>

#include "sim/event_loop.h"
#include "sim/node.h"

namespace mptcp {

/// One-directional in-path element.
class SimpleMiddlebox : public Middlebox {
 public:
  void deliver(TcpSegment seg) final { process(std::move(seg)); }

 protected:
  virtual void process(TcpSegment seg) = 0;
};

/// Two-directional element: owns a forward sink (toward the server) and a
/// reverse sink (toward the client) that share state. Each sink is itself
/// a Middlebox, so either direction splices like any one-directional
/// element: forward_sink().set_downstream(...) wires its output.
class DuplexMiddlebox {
 public:
  virtual ~DuplexMiddlebox() = default;

  Middlebox& forward_sink() { return fwd_; }
  Middlebox& reverse_sink() { return rev_; }

 protected:
  virtual void on_forward(TcpSegment seg) = 0;
  virtual void on_reverse(TcpSegment seg) = 0;
  void emit_forward(TcpSegment seg) { fwd_.forward(std::move(seg)); }
  void emit_reverse(TcpSegment seg) { rev_.forward(std::move(seg)); }

 private:
  struct Adapter final : Middlebox {
    explicit Adapter(std::function<void(TcpSegment)> fn)
        : fn_(std::move(fn)) {}
    void deliver(TcpSegment seg) override { fn_(std::move(seg)); }
    void forward(TcpSegment seg) { emit(std::move(seg)); }
    std::function<void(TcpSegment)> fn_;
  };

  Adapter fwd_{[this](TcpSegment s) { on_forward(std::move(s)); }};
  Adapter rev_{[this](TcpSegment s) { on_reverse(std::move(s)); }};
};

}  // namespace mptcp
