#include "packet/parser.hpp"

#include <cstring>

#include "common/endian.hpp"
#include "common/hash.hpp"

namespace albatross {
namespace {

/// Parses one IPv4+L4 layer starting at `off`; fills ip/l4 fields through
/// the provided references. Returns the offset just past the L4 header,
/// or nullopt on truncation.
std::optional<std::size_t> parse_ip_l4(std::span<const std::uint8_t> f,
                                       std::size_t off, Ipv4Header& ip,
                                       std::uint16_t& sport,
                                       std::uint16_t& dport,
                                       std::uint8_t& tcp_flags) {
  auto iph = Ipv4Header::read(f.data() + off, f.size() - off);
  if (!iph) return std::nullopt;
  ip = *iph;
  const std::size_t l4 = off + Ipv4Header::kSize;
  if (ip.protocol == IpProto::kUdp) {
    if (f.size() < l4 + UdpHeader::kSize) return std::nullopt;
    const auto udp = UdpHeader::read(f.data() + l4);
    sport = udp.src_port;
    dport = udp.dst_port;
    return l4 + UdpHeader::kSize;
  }
  if (ip.protocol == IpProto::kTcp) {
    if (f.size() < l4 + TcpHeader::kSize) return std::nullopt;
    const auto tcp = TcpHeader::read(f.data() + l4);
    sport = tcp.src_port;
    dport = tcp.dst_port;
    tcp_flags = tcp.flags;
    return l4 + TcpHeader::kSize;
  }
  // ICMP and friends: no ports.
  sport = dport = 0;
  return l4;
}

}  // namespace

bool ParsedPacket::is_protocol_packet() const {
  if (ip.protocol == IpProto::kTcp &&
      (l4_src == kBgpPort || l4_dst == kBgpPort)) {
    return true;
  }
  return ip.protocol == IpProto::kUdp && l4_dst == kBfdPort;
}

FiveTuple ParsedPacket::flow_tuple() const {
  if (inner_ip) {
    return FiveTuple{inner_ip->src, inner_ip->dst, inner_l4_src, inner_l4_dst,
                     inner_ip->protocol};
  }
  return FiveTuple{ip.src, ip.dst, l4_src, l4_dst, ip.protocol};
}

Vni ParsedPacket::tenant_vni() const {
  if (vxlan) return vxlan->vni;
  if (geneve) return geneve->vni;
  return 0;
}

std::optional<ParsedPacket> parse_packet(std::span<const std::uint8_t> f) {
  if (f.size() < EthernetHeader::kSize) return std::nullopt;
  // Other outer EtherTypes (the all-zero synthetic frames among them)
  // are out of scope: reject them before building a ParsedPacket.
  const std::uint16_t outer = load_be16(f.data() + EthernetHeader::kSize - 2);
  if (outer != static_cast<std::uint16_t>(EtherType::kVlan) &&
      outer != static_cast<std::uint16_t>(EtherType::kIpv4) &&
      outer != static_cast<std::uint16_t>(EtherType::kIpv6)) {
    return std::nullopt;
  }
  ParsedPacket p;
  p.eth = EthernetHeader::read(f.data());
  std::size_t off = EthernetHeader::kSize;
  std::uint16_t etype = p.eth.ether_type;

  if (etype == static_cast<std::uint16_t>(EtherType::kVlan)) {
    if (f.size() < off + VlanTag::kSize) return std::nullopt;
    p.vlan = VlanTag::read(f.data() + off);
    etype = p.vlan->inner_ether_type;
    off += VlanTag::kSize;
  }
  if (etype == static_cast<std::uint16_t>(EtherType::kIpv6)) {
    // Native IPv6: fixed header + TCP/UDP. The internal flow key folds
    // the 128-bit addresses down so the IPv4-shaped FiveTuple machinery
    // (RSS, ordq selection, conntrack) applies uniformly.
    auto v6 = Ipv6Header::read(f.data() + off, f.size() - off);
    if (!v6) return std::nullopt;
    p.ipv6 = *v6;
    p.l3_offset = off;
    const std::size_t l4 = off + Ipv6Header::kSize;
    p.ip.protocol = v6->next_header;
    if (v6->next_header == IpProto::kUdp) {
      if (f.size() < l4 + UdpHeader::kSize) return std::nullopt;
      const auto udp = UdpHeader::read(f.data() + l4);
      p.l4_src = udp.src_port;
      p.l4_dst = udp.dst_port;
      p.payload_offset = l4 + UdpHeader::kSize;
    } else if (v6->next_header == IpProto::kTcp) {
      if (f.size() < l4 + TcpHeader::kSize) return std::nullopt;
      const auto tcp = TcpHeader::read(f.data() + l4);
      p.l4_src = tcp.src_port;
      p.l4_dst = tcp.dst_port;
      p.tcp_flags = tcp.flags;
      p.payload_offset = l4 + TcpHeader::kSize;
    } else {
      p.payload_offset = l4;
    }
    p.l4_offset = l4;
    // Folded flow key (see header comment).
    p.ip.src.addr = static_cast<std::uint32_t>(
        fnv1a64(std::span<const std::uint8_t>(v6->src.bytes)));
    p.ip.dst.addr = static_cast<std::uint32_t>(
        fnv1a64(std::span<const std::uint8_t>(v6->dst.bytes)));
    return p;
  }
  if (etype != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    return std::nullopt;  // other ethertypes are out of scope
  }

  p.l3_offset = off;
  auto after_l4 = parse_ip_l4(f, off, p.ip, p.l4_src, p.l4_dst, p.tcp_flags);
  if (!after_l4) return std::nullopt;
  p.l4_offset = off + Ipv4Header::kSize;
  p.payload_offset = *after_l4;

  // Overlay parsing: VXLAN on UDP/4789, Geneve on UDP/6081.
  if (p.ip.protocol == IpProto::kUdp &&
      (p.l4_dst == kVxlanPort || p.l4_dst == kGenevePort)) {
    std::size_t ov = *after_l4;
    std::size_t inner_l2;
    if (p.l4_dst == kVxlanPort) {
      if (f.size() < ov + VxlanHeader::kSize) return std::nullopt;
      p.vxlan = VxlanHeader::read(f.data() + ov);
      if (!p.vxlan) return std::nullopt;
      inner_l2 = ov + VxlanHeader::kSize;
    } else {
      if (f.size() < ov + GeneveHeader::kSize) return std::nullopt;
      p.geneve = GeneveHeader::read(f.data() + ov);
      if (!p.geneve) return std::nullopt;
      inner_l2 = ov + p.geneve->total_size();
    }
    if (f.size() < inner_l2 + EthernetHeader::kSize) return std::nullopt;
    const auto inner_eth = EthernetHeader::read(f.data() + inner_l2);
    if (inner_eth.ether_type !=
        static_cast<std::uint16_t>(EtherType::kIpv4)) {
      return p;  // non-IP inner payload: stop at the overlay
    }
    Ipv4Header inner_ip;
    std::uint8_t inner_flags = 0;
    auto inner_after =
        parse_ip_l4(f, inner_l2 + EthernetHeader::kSize, inner_ip,
                    p.inner_l4_src, p.inner_l4_dst, inner_flags);
    if (!inner_after) return p;
    p.inner_ip = inner_ip;
    p.payload_offset = *inner_after;
  }
  return p;
}

std::optional<ParsedPacket> parse_and_annotate(Packet& pkt) {
  auto parsed = parse_packet(pkt.bytes());
  if (!parsed) return std::nullopt;
  pkt.tuple = parsed->flow_tuple();
  pkt.vni = parsed->tenant_vni();
  return parsed;
}

namespace {

/// Writes Ethernet+IPv4 and returns the L4 offset.
std::size_t write_eth_ip(std::uint8_t* p, const UdpFlowSpec& spec,
                         std::size_t l3_payload_len) {
  EthernetHeader eth;
  eth.src = spec.src_mac;
  eth.dst = spec.dst_mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.write(p);

  Ipv4Header ip;
  ip.src = spec.tuple.src_ip;
  ip.dst = spec.tuple.dst_ip;
  ip.protocol = spec.tuple.proto;
  ip.dscp = spec.dscp;
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + l3_payload_len);
  ip.write(p + EthernetHeader::kSize);
  return EthernetHeader::kSize + Ipv4Header::kSize;
}

}  // namespace

PacketPtr build_udp_packet(const UdpFlowSpec& spec) {
  auto pkt = std::make_unique<Packet>();
  const std::size_t frame_len = EthernetHeader::kSize + Ipv4Header::kSize +
                                UdpHeader::kSize + spec.payload_len;
  std::uint8_t* p = pkt->append(frame_len);
  std::memset(p, 0, frame_len);
  const std::size_t l4 =
      write_eth_ip(p, spec, UdpHeader::kSize + spec.payload_len);
  UdpHeader udp;
  udp.src_port = spec.tuple.src_port;
  udp.dst_port = spec.tuple.dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + spec.payload_len);
  udp.write(p + l4);
  pkt->tuple = spec.tuple;
  return pkt;
}

PacketPtr build_tcp_packet(const UdpFlowSpec& spec, std::uint8_t tcp_flags) {
  auto pkt = std::make_unique<Packet>();
  const std::size_t frame_len = EthernetHeader::kSize + Ipv4Header::kSize +
                                TcpHeader::kSize + spec.payload_len;
  std::uint8_t* p = pkt->append(frame_len);
  std::memset(p, 0, frame_len);
  UdpFlowSpec tcp_spec = spec;
  tcp_spec.tuple.proto = IpProto::kTcp;
  const std::size_t l4 =
      write_eth_ip(p, tcp_spec, TcpHeader::kSize + spec.payload_len);
  TcpHeader tcp;
  tcp.src_port = spec.tuple.src_port;
  tcp.dst_port = spec.tuple.dst_port;
  tcp.flags = tcp_flags;
  tcp.write(p + l4);
  pkt->tuple = tcp_spec.tuple;
  return pkt;
}

PacketPtr build_vxlan_packet(const VxlanFlowSpec& spec) {
  // Build the inner frame first, then wrap it.
  auto inner = build_udp_packet(spec.inner);
  auto pkt = std::make_unique<Packet>();
  const std::size_t inner_len = inner->size();
  const std::size_t frame_len = EthernetHeader::kSize + Ipv4Header::kSize +
                                UdpHeader::kSize + VxlanHeader::kSize +
                                inner_len;
  std::uint8_t* p = pkt->append(frame_len);
  std::memset(p, 0, frame_len);

  UdpFlowSpec outer_spec;
  outer_spec.tuple = spec.outer;
  outer_spec.tuple.proto = IpProto::kUdp;
  outer_spec.tuple.dst_port = kVxlanPort;
  const std::size_t l4 = write_eth_ip(
      p, outer_spec,
      UdpHeader::kSize + VxlanHeader::kSize + inner_len);

  UdpHeader udp;
  udp.src_port = spec.outer.src_port;  // entropy field
  udp.dst_port = kVxlanPort;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize +
                                          VxlanHeader::kSize + inner_len);
  udp.write(p + l4);

  VxlanHeader vx;
  vx.vni = spec.vni;
  vx.write(p + l4 + UdpHeader::kSize);

  std::memcpy(p + l4 + UdpHeader::kSize + VxlanHeader::kSize, inner->data(),
              inner_len);
  pkt->tuple = spec.inner.tuple;
  pkt->vni = spec.vni;
  return pkt;
}

PacketPtr build_geneve_packet(const VxlanFlowSpec& spec,
                              std::uint8_t opt_len_words) {
  auto inner = build_udp_packet(spec.inner);
  auto pkt = std::make_unique<Packet>();
  const std::size_t geneve_len =
      GeneveHeader::kSize + std::size_t{opt_len_words} * 4;
  const std::size_t inner_len = inner->size();
  const std::size_t frame_len = EthernetHeader::kSize + Ipv4Header::kSize +
                                UdpHeader::kSize + geneve_len + inner_len;
  std::uint8_t* p = pkt->append(frame_len);
  std::memset(p, 0, frame_len);

  UdpFlowSpec outer_spec;
  outer_spec.tuple = spec.outer;
  outer_spec.tuple.proto = IpProto::kUdp;
  outer_spec.tuple.dst_port = kGenevePort;
  const std::size_t l4 =
      write_eth_ip(p, outer_spec, UdpHeader::kSize + geneve_len + inner_len);

  UdpHeader udp;
  udp.src_port = spec.outer.src_port;
  udp.dst_port = kGenevePort;
  udp.length =
      static_cast<std::uint16_t>(UdpHeader::kSize + geneve_len + inner_len);
  udp.write(p + l4);

  GeneveHeader g;
  g.vni = spec.vni;
  g.opt_len_words = opt_len_words;
  g.write(p + l4 + UdpHeader::kSize);

  std::memcpy(p + l4 + UdpHeader::kSize + geneve_len, inner->data(),
              inner_len);
  pkt->tuple = spec.inner.tuple;
  pkt->vni = spec.vni;
  return pkt;
}

PacketPtr build_udp6_packet(const Ipv6Address& src, const Ipv6Address& dst,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            std::size_t payload_len) {
  auto pkt = std::make_unique<Packet>();
  const std::size_t frame_len = EthernetHeader::kSize + Ipv6Header::kSize +
                                UdpHeader::kSize + payload_len;
  std::uint8_t* p = pkt->append(frame_len);
  std::memset(p, 0, frame_len);

  EthernetHeader eth;
  eth.src = MacAddress::from_u64(0x020000000001);
  eth.dst = MacAddress::from_u64(0x020000000002);
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv6);
  eth.write(p);

  Ipv6Header ip6;
  ip6.src = src;
  ip6.dst = dst;
  ip6.next_header = IpProto::kUdp;
  ip6.payload_length =
      static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
  ip6.write(p + EthernetHeader::kSize);

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
  udp.write(p + EthernetHeader::kSize + Ipv6Header::kSize);
  return pkt;
}

PacketPtr build_bfd_packet(const FiveTuple& tuple, const BfdHeader& bfd) {
  UdpFlowSpec spec;
  spec.tuple = tuple;
  spec.tuple.proto = IpProto::kUdp;
  spec.tuple.dst_port = kBfdPort;
  spec.payload_len = BfdHeader::kSize;
  auto pkt = build_udp_packet(spec);
  bfd.write(pkt->data() + EthernetHeader::kSize + Ipv4Header::kSize +
            UdpHeader::kSize);
  return pkt;
}

}  // namespace albatross
