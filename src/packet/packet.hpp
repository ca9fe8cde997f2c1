// Packet buffer abstraction, modelled on a DPDK rte_mbuf: a fixed-size
// byte arena with headroom for encapsulation, tailroom for the PLB meta
// trailer, plus out-of-band metadata the NIC pipeline and GW pods use.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace albatross {

/// Byte arena backing one Packet, recycled through a size-classed pool
/// (mempool-style, like DPDK's rte_mempool): the simulator churns one
/// buffer per modelled packet, and pooling removes the allocator and the
/// page-zeroing from that path. Buffers come back UNINITIALIZED — every
/// producer writes the region it later reads (assign/append callers
/// serialise into the space they claim; Packet::make_synthetic zeroes
/// its payload explicitly).
class PacketBuf {
 public:
  PacketBuf() = default;
  explicit PacketBuf(std::size_t min_bytes);
  ~PacketBuf();
  PacketBuf(const PacketBuf&) = delete;
  PacketBuf& operator=(const PacketBuf&) = delete;
  PacketBuf(PacketBuf&& o) noexcept : data_(o.data_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.cap_ = 0;
  }
  PacketBuf& operator=(PacketBuf&& o) noexcept;

  [[nodiscard]] std::uint8_t* data() { return data_; }
  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return cap_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t cap_ = 0;
};

/// PLB meta header carried with every PLB-mode packet from the NIC to the
/// CPU and back (§4.1). Production attaches it at the packet *tail*
/// because gateways never touch packet tails; attaching at the head would
/// either collide with encap/decap or cost an extra copy (§7, -33.6%).
struct PlbMeta {
  Psn psn = 0;                 ///< arrival order within the order queue
  std::uint8_t ordq_idx = 0;   ///< order-preserving queue index
  bool drop = false;           ///< GW pod sets this to release reorder state
  bool header_only = false;    ///< payload retained in NIC payload buffer
  std::uint16_t payload_id = 0;///< NIC payload-buffer slot (header-only mode)

  static constexpr std::size_t kWireSize = 12;
  static constexpr std::uint16_t kMagic = 0xA1BA;  // "ALBAtross"

  /// Serialises into `out` (must have kWireSize bytes).
  void serialize(std::uint8_t* out) const;

  /// Parses from `in`; returns false if the magic does not match.
  static bool deserialize(const std::uint8_t* in, PlbMeta& out);
};

/// How the NIC classified this packet in pkt_dir (§3.2).
enum class PktClass : std::uint8_t {
  kUnclassified,
  kPriority,  ///< control-plane protocol packets (BGP/BFD), priority queues
  kRss,       ///< stateful/low-volume packets kept on flow-affine cores
  kPlb,       ///< bulk data packets sprayed per-packet
};

/// A single packet. Owns its bytes; cheap to move, not copyable except
/// via clone() so accidental deep copies are visible in the code.
class Packet {
 public:
  /// Headroom in front of the initial frame for encapsulation growth.
  static constexpr std::size_t kHeadroom = 128;
  /// Maximum Ethernet frame we model: jumbo (9000B MTU class).
  static constexpr std::size_t kMaxFrame = 9216;

  /// Tailroom kept on right-sized packets for the PLB meta trailer.
  static constexpr std::size_t kTailroomSlack = 64;

  Packet();
  explicit Packet(std::span<const std::uint8_t> frame);

  /// Allocates a right-sized buffer (headroom + capacity + tailroom)
  /// instead of the full jumbo arena; used by high-volume generators.
  explicit Packet(std::size_t capacity_bytes);

  /// Builds a zero-payload frame of `wire_len` bytes with metadata
  /// pre-annotated, skipping header serialisation. Timed experiments use
  /// these; the byte-accurate path is exercised by build_* + the parser.
  static std::unique_ptr<Packet> make_synthetic(const FiveTuple& tuple,
                                                Vni vni, std::size_t wire_len);

  /// Packet objects are recycled through a bounded thread_local
  /// freelist, like PacketBuf arenas: the simulator creates and destroys
  /// one per modelled packet. Every constructor sets every field, so a
  /// recycled object carries no old metadata.
  static void* operator new(std::size_t size);
  static void operator delete(void* p, std::size_t size) noexcept;

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;

  [[nodiscard]] std::unique_ptr<Packet> clone() const;

  /// Replaces the frame contents.
  void assign(std::span<const std::uint8_t> frame);

  [[nodiscard]] std::uint8_t* data() { return store_.data() + offset_; }
  [[nodiscard]] const std::uint8_t* data() const {
    return store_.data() + offset_;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data(), len_};
  }
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    return {data(), len_};
  }

  /// Grows the frame at the front (encapsulation); returns the new start.
  std::uint8_t* prepend(std::size_t n);
  /// Shrinks the frame at the front (decapsulation).
  void adj(std::size_t n);
  /// Grows at the tail; returns pointer to the appended region.
  std::uint8_t* append(std::size_t n);
  /// Shrinks at the tail.
  void trim(std::size_t n);

  // --- PLB meta trailer -------------------------------------------------
  /// Appends the serialized meta trailer to the tail.
  void attach_plb_meta(const PlbMeta& meta);
  /// Reads the trailer without removing it; false if absent/corrupt.
  [[nodiscard]] bool peek_plb_meta(PlbMeta& out) const;
  /// Removes and returns the trailer; false if absent.
  bool strip_plb_meta(PlbMeta& out);
  /// Rewrites an attached trailer in place (e.g. GW pod sets drop flag).
  bool update_plb_meta(const PlbMeta& meta);
  /// O(1) "is a trailer attached" check for hot paths, maintained by
  /// attach/strip (and re-probed on assign). peek_plb_meta remains the
  /// byte-validating probe for frames of unknown provenance.
  [[nodiscard]] bool has_plb_meta() const { return has_plb_meta_; }

  // --- out-of-band metadata (rte_mbuf-style fields) ----------------------
  NanoTime rx_time = NanoTime{0};          ///< wire arrival timestamp
  NanoTime nic_ingress_done = NanoTime{0}; ///< when the NIC handed it to the CPU
  FiveTuple tuple;               ///< filled by the parser
  Vni vni = 0;                   ///< tenant id from the VXLAN header
  PktClass pkt_class = PktClass::kUnclassified;
  PodId pod = 0;
  std::uint16_t rx_queue = 0;
  std::uint64_t flow_id = 0;     ///< generator-assigned, for test oracles
  std::uint64_t seq_in_flow = 0; ///< generator-assigned per-flow sequence

 private:
  PacketBuf store_;
  std::size_t offset_ = kHeadroom;
  std::size_t len_ = 0;
  bool has_plb_meta_ = false;
};

using PacketPtr = std::unique_ptr<Packet>;

}  // namespace albatross
