#include "packet/packet.hpp"

#include <cassert>
#include <new>
#include <vector>

#include "common/endian.hpp"

namespace albatross {

namespace {

// Size-classed freelists for PacketBuf. Classes are powers of two from
// 256 B up to 16 KiB (>= kHeadroom + kMaxFrame + tailroom); anything
// larger falls back to plain new[]/delete[]. thread_local keeps the pool
// lock-free; the simulator itself is single-threaded.
constexpr std::size_t kMinClassShift = 8;   // 256 B
constexpr std::size_t kMaxClassShift = 14;  // 16 KiB
constexpr std::size_t kNumClasses = kMaxClassShift - kMinClassShift + 1;
constexpr std::size_t kMaxPooledPerClass = 16384;

struct BufPool {
  std::vector<std::uint8_t*> free_lists[kNumClasses];
  ~BufPool() {
    for (auto& fl : free_lists) {
      for (std::uint8_t* p : fl) delete[] p;
    }
  }
};

BufPool& buf_pool() {
  static thread_local BufPool pool;
  return pool;
}

/// Class index for a pooled capacity, or kNumClasses if unpooled.
std::size_t class_of(std::size_t cap) {
  std::size_t sz = std::size_t{1} << kMinClassShift;
  for (std::size_t cls = 0; cls < kNumClasses; ++cls, sz <<= 1) {
    if (cap == sz) return cls;
  }
  return kNumClasses;
}

// Freelist of Packet-sized blocks, threaded through the blocks
// themselves and bounded like the buffer classes above.
constexpr std::size_t kMaxPooledPackets = 16384;

struct FreeBlock {
  FreeBlock* next;
};

struct PacketPool {
  FreeBlock* head = nullptr;
  std::size_t count = 0;
  ~PacketPool() {
    while (head != nullptr) {
      FreeBlock* next = head->next;
      ::operator delete(head);
      head = next;
    }
  }
};

PacketPool& packet_pool() {
  static thread_local PacketPool pool;
  return pool;
}

}  // namespace

void* Packet::operator new(std::size_t size) {
  PacketPool& pool = packet_pool();
  if (size == sizeof(Packet) && pool.head != nullptr) {
    FreeBlock* b = pool.head;
    pool.head = b->next;
    --pool.count;
    return b;
  }
  return ::operator new(size);
}

void Packet::operator delete(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  PacketPool& pool = packet_pool();
  if (size == sizeof(Packet) && pool.count < kMaxPooledPackets) {
    pool.head = ::new (p) FreeBlock{pool.head};
    ++pool.count;
    return;
  }
  ::operator delete(p);
}

PacketBuf::PacketBuf(std::size_t min_bytes) {
  std::size_t sz = std::size_t{1} << kMinClassShift;
  std::size_t cls = 0;
  while (sz < min_bytes && cls + 1 < kNumClasses) {
    sz <<= 1;
    ++cls;
  }
  if (sz < min_bytes) {
    // Oversize (cannot happen for frames <= kMaxFrame): unpooled.
    data_ = new std::uint8_t[min_bytes];
    cap_ = min_bytes;
    return;
  }
  auto& fl = buf_pool().free_lists[cls];
  if (!fl.empty()) {
    data_ = fl.back();
    fl.pop_back();
  } else {
    data_ = new std::uint8_t[sz];
  }
  cap_ = sz;
}

PacketBuf::~PacketBuf() {
  if (data_ == nullptr) return;
  const std::size_t cls = class_of(cap_);
  if (cls < kNumClasses) {
    auto& fl = buf_pool().free_lists[cls];
    if (fl.size() < kMaxPooledPerClass) {
      fl.push_back(data_);
      return;
    }
  }
  delete[] data_;
}

PacketBuf& PacketBuf::operator=(PacketBuf&& o) noexcept {
  if (this != &o) {
    std::uint8_t* p = o.data_;
    const std::size_t c = o.cap_;
    o.data_ = nullptr;
    o.cap_ = 0;
    this->~PacketBuf();
    data_ = p;
    cap_ = c;
  }
  return *this;
}

void PlbMeta::serialize(std::uint8_t* out) const {
  store_be16(out, kMagic);
  std::uint8_t flags = 0;
  if (drop) flags |= 0x1;
  if (header_only) flags |= 0x2;
  out[2] = flags;
  out[3] = ordq_idx;
  store_be32(out + 4, psn);
  store_be16(out + 8, payload_id);
  store_be16(out + 10, 0);  // reserved
}

bool PlbMeta::deserialize(const std::uint8_t* in, PlbMeta& out) {
  if (load_be16(in) != kMagic) return false;
  const std::uint8_t flags = in[2];
  out.drop = (flags & 0x1) != 0;
  out.header_only = (flags & 0x2) != 0;
  out.ordq_idx = in[3];
  out.psn = load_be32(in + 4);
  out.payload_id = load_be16(in + 8);
  return true;
}

Packet::Packet() : store_(kHeadroom + kMaxFrame) {}

Packet::Packet(std::span<const std::uint8_t> frame)
    : Packet(frame.size() + kTailroomSlack) {
  assign(frame);
}

Packet::Packet(std::size_t capacity_bytes)
    : store_(kHeadroom + capacity_bytes) {}

std::unique_ptr<Packet> Packet::make_synthetic(const FiveTuple& tuple, Vni vni,
                                 std::size_t wire_len) {
  auto pkt = std::make_unique<Packet>(wire_len + kTailroomSlack);
  // The pooled arena is uninitialized; the zero-payload contract of
  // synthetic frames needs exactly this memset (and nothing wider).
  std::memset(pkt->append(wire_len), 0, wire_len);
  pkt->tuple = tuple;
  pkt->vni = vni;
  return pkt;
}

void Packet::assign(std::span<const std::uint8_t> frame) {
  assert(frame.size() <= kMaxFrame);
  assert(kHeadroom + frame.size() <= store_.size());
  offset_ = kHeadroom;
  len_ = frame.size();
  std::memcpy(store_.data() + offset_, frame.data(), frame.size());
  PlbMeta probe;
  has_plb_meta_ = peek_plb_meta(probe);
}

std::unique_ptr<Packet> Packet::clone() const {
  auto p = std::make_unique<Packet>(std::size_t{0});
  p->store_ = PacketBuf(store_.size());
  std::memcpy(p->store_.data(), store_.data(), offset_ + len_);
  p->offset_ = offset_;
  p->len_ = len_;
  p->has_plb_meta_ = has_plb_meta_;
  p->rx_time = rx_time;
  p->nic_ingress_done = nic_ingress_done;
  p->tuple = tuple;
  p->vni = vni;
  p->pkt_class = pkt_class;
  p->pod = pod;
  p->rx_queue = rx_queue;
  p->flow_id = flow_id;
  p->seq_in_flow = seq_in_flow;
  return p;
}

std::uint8_t* Packet::prepend(std::size_t n) {
  assert(offset_ >= n);
  offset_ -= n;
  len_ += n;
  return data();
}

void Packet::adj(std::size_t n) {
  assert(n <= len_);
  offset_ += n;
  len_ -= n;
}

std::uint8_t* Packet::append(std::size_t n) {
  assert(offset_ + len_ + n <= store_.size());
  std::uint8_t* p = store_.data() + offset_ + len_;
  len_ += n;
  return p;
}

void Packet::trim(std::size_t n) {
  assert(n <= len_);
  len_ -= n;
}

void Packet::attach_plb_meta(const PlbMeta& meta) {
  meta.serialize(append(PlbMeta::kWireSize));
  has_plb_meta_ = true;
}

bool Packet::peek_plb_meta(PlbMeta& out) const {
  if (len_ < PlbMeta::kWireSize) return false;
  return PlbMeta::deserialize(data() + len_ - PlbMeta::kWireSize, out);
}

bool Packet::strip_plb_meta(PlbMeta& out) {
  if (!peek_plb_meta(out)) return false;
  trim(PlbMeta::kWireSize);
  has_plb_meta_ = false;
  return true;
}

bool Packet::update_plb_meta(const PlbMeta& meta) {
  PlbMeta existing;
  if (!peek_plb_meta(existing)) return false;
  meta.serialize(store_.data() + offset_ + len_ - PlbMeta::kWireSize);
  return true;
}

}  // namespace albatross
