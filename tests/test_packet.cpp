// Packet buffer, header (de)serialisation and parser tests.
#include <gtest/gtest.h>

#include <vector>

#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "packet/parser.hpp"

namespace albatross {
namespace {

FiveTuple tuple(std::uint16_t sport = 1000, std::uint16_t dport = 2000) {
  return FiveTuple{Ipv4Address::from_octets(10, 0, 0, 1),
                   Ipv4Address::from_octets(10, 0, 0, 2), sport, dport,
                   IpProto::kUdp};
}

TEST(Packet, PrependAdjAppendTrim) {
  std::vector<std::uint8_t> frame(100, 0xAB);
  Packet p{std::span<const std::uint8_t>(frame)};
  EXPECT_EQ(p.size(), 100u);

  std::uint8_t* head = p.prepend(8);
  EXPECT_EQ(p.size(), 108u);
  std::fill(head, head + 8, 0xCD);
  EXPECT_EQ(p.data()[0], 0xCD);
  EXPECT_EQ(p.data()[8], 0xAB);

  p.adj(8);
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(p.data()[0], 0xAB);

  std::uint8_t* tail = p.append(4);
  std::fill(tail, tail + 4, 0xEF);
  EXPECT_EQ(p.size(), 104u);
  EXPECT_EQ(p.data()[103], 0xEF);
  p.trim(4);
  EXPECT_EQ(p.size(), 100u);
}

TEST(Packet, PlbMetaRoundTrip) {
  auto p = Packet::make_synthetic(tuple(), 7, 256);
  PlbMeta meta;
  meta.psn = 0xDEADBEEF;
  meta.ordq_idx = 5;
  meta.drop = false;
  meta.header_only = true;
  meta.payload_id = 321;
  p->attach_plb_meta(meta);
  EXPECT_EQ(p->size(), 256 + PlbMeta::kWireSize);

  PlbMeta read;
  ASSERT_TRUE(p->peek_plb_meta(read));
  EXPECT_EQ(read.psn, meta.psn);
  EXPECT_EQ(read.ordq_idx, meta.ordq_idx);
  EXPECT_TRUE(read.header_only);
  EXPECT_EQ(read.payload_id, 321);
  EXPECT_FALSE(read.drop);

  // In-place update (the drop-flag path).
  read.drop = true;
  ASSERT_TRUE(p->update_plb_meta(read));
  PlbMeta again;
  ASSERT_TRUE(p->strip_plb_meta(again));
  EXPECT_TRUE(again.drop);
  EXPECT_EQ(p->size(), 256u);
  EXPECT_FALSE(p->peek_plb_meta(again));  // trailer gone
}

TEST(Packet, MetaMagicRejectsGarbage) {
  auto p = Packet::make_synthetic(tuple(), 1, 64);
  PlbMeta meta;
  EXPECT_FALSE(p->peek_plb_meta(meta));  // zero payload != magic
}

TEST(Packet, CloneCopiesBytesAndMetadata) {
  auto p = Packet::make_synthetic(tuple(42, 43), 9, 128);
  p->flow_id = 1234;
  p->seq_in_flow = 56;
  p->rx_time = NanoTime{999};
  auto c = p->clone();
  EXPECT_EQ(c->size(), 128u);
  EXPECT_EQ(c->flow_id, 1234u);
  EXPECT_EQ(c->seq_in_flow, 56u);
  EXPECT_EQ(c->rx_time, NanoTime{999});
  EXPECT_EQ(c->tuple, p->tuple);
}

TEST(Packet, PooledPacketComesBackWithFreshMetadata) {
  const auto scribble = [](Packet& p) {
    p.rx_time = NanoTime{7};
    p.nic_ingress_done = NanoTime{8};
    p.vni = 77;
    p.pkt_class = PktClass::kPlb;
    p.pod = 3;
    p.rx_queue = 5;
    p.flow_id = 11;
    p.seq_in_flow = 12;
    p.attach_plb_meta(PlbMeta{});
  };

  // A freed Packet's storage is the next one handed out.
  auto used = Packet::make_synthetic(tuple(1, 2), 5, 64);
  scribble(*used);
  const Packet* recycled = used.get();
  used.reset();
  auto fresh = Packet::make_synthetic(tuple(7, 8), 9, 64);
  ASSERT_EQ(fresh.get(), recycled);
  EXPECT_EQ(fresh->rx_time, NanoTime{0});
  EXPECT_EQ(fresh->nic_ingress_done, NanoTime{0});
  EXPECT_EQ(fresh->tuple, tuple(7, 8));
  EXPECT_EQ(fresh->vni, 9u);
  EXPECT_EQ(fresh->pkt_class, PktClass::kUnclassified);
  EXPECT_EQ(fresh->pod, 0u);
  EXPECT_EQ(fresh->rx_queue, 0u);
  EXPECT_EQ(fresh->flow_id, 0u);
  EXPECT_EQ(fresh->seq_in_flow, 0u);
  EXPECT_FALSE(fresh->has_plb_meta());
  ASSERT_EQ(fresh->size(), 64u);
  for (const std::uint8_t b : fresh->bytes()) EXPECT_EQ(b, 0u);

  // clone() into recycled storage copies the source, nothing stale.
  auto src = Packet::make_synthetic(tuple(3, 4), 6, 96);
  src->flow_id = 21;
  src->seq_in_flow = 22;
  scribble(*fresh);
  recycled = fresh.get();
  fresh.reset();
  auto copy = src->clone();
  ASSERT_EQ(copy.get(), recycled);
  EXPECT_EQ(copy->rx_time, NanoTime{0});
  EXPECT_EQ(copy->nic_ingress_done, NanoTime{0});
  EXPECT_EQ(copy->tuple, tuple(3, 4));
  EXPECT_EQ(copy->vni, 6u);
  EXPECT_EQ(copy->pkt_class, PktClass::kUnclassified);
  EXPECT_EQ(copy->pod, 0u);
  EXPECT_EQ(copy->rx_queue, 0u);
  EXPECT_EQ(copy->flow_id, 21u);
  EXPECT_EQ(copy->seq_in_flow, 22u);
  EXPECT_FALSE(copy->has_plb_meta());
  EXPECT_EQ(copy->size(), 96u);
}

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader h;
  h.src = MacAddress::from_u64(0x010203040506);
  h.dst = MacAddress::from_u64(0x0A0B0C0D0E0F);
  h.ether_type = 0x0800;
  std::uint8_t buf[EthernetHeader::kSize];
  h.write(buf);
  const auto r = EthernetHeader::read(buf);
  EXPECT_EQ(r.src, h.src);
  EXPECT_EQ(r.dst, h.dst);
  EXPECT_EQ(r.ether_type, 0x0800);
}

TEST(Headers, VlanRoundTrip) {
  VlanTag t;
  t.vlan_id = 0x123;
  t.pcp = 5;
  t.inner_ether_type = 0x0800;
  std::uint8_t buf[VlanTag::kSize];
  t.write(buf);
  const auto r = VlanTag::read(buf);
  EXPECT_EQ(r.vlan_id, 0x123);
  EXPECT_EQ(r.pcp, 5);
  EXPECT_EQ(r.inner_ether_type, 0x0800);
}

TEST(Headers, Ipv4ChecksumValid) {
  Ipv4Header h;
  h.src = Ipv4Address::from_octets(1, 2, 3, 4);
  h.dst = Ipv4Address::from_octets(5, 6, 7, 8);
  h.total_length = 100;
  h.protocol = IpProto::kTcp;
  std::uint8_t buf[Ipv4Header::kSize];
  h.write(buf);
  // Recomputing the checksum over the full header must give 0 residue.
  EXPECT_EQ(Ipv4Header::checksum(buf, Ipv4Header::kSize), 0);
  const auto r = Ipv4Header::read(buf, sizeof buf);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->src, h.src);
  EXPECT_EQ(r->dst, h.dst);
  EXPECT_EQ(r->protocol, IpProto::kTcp);
}

TEST(Headers, Ipv4RejectsTruncatedAndBadVersion) {
  std::uint8_t buf[Ipv4Header::kSize] = {};
  EXPECT_FALSE(Ipv4Header::read(buf, 10).has_value());
  buf[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::read(buf, sizeof buf).has_value());
}

TEST(Headers, VxlanVniRoundTrip) {
  VxlanHeader v;
  v.vni = 0xABCDE;
  std::uint8_t buf[VxlanHeader::kSize];
  v.write(buf);
  const auto r = VxlanHeader::read(buf);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->vni, 0xABCDEu);
  buf[0] = 0;  // clear I flag
  EXPECT_FALSE(VxlanHeader::read(buf).has_value());
}

TEST(Headers, GeneveAndNshAndBfd) {
  GeneveHeader g;
  g.vni = 77;
  g.opt_len_words = 2;
  std::uint8_t gb[GeneveHeader::kSize];
  g.write(gb);
  auto gr = GeneveHeader::read(gb);
  ASSERT_TRUE(gr.has_value());
  EXPECT_EQ(gr->vni, 77u);
  EXPECT_EQ(gr->total_size(), GeneveHeader::kSize + 8u);

  NshHeader n;
  n.service_path_id = 0x1234;
  n.service_index = 9;
  std::uint8_t nb[NshHeader::kSize];
  n.write(nb);
  auto nr = NshHeader::read(nb);
  ASSERT_TRUE(nr.has_value());
  EXPECT_EQ(nr->service_path_id, 0x1234u);
  EXPECT_EQ(nr->service_index, 9);

  BfdHeader b;
  b.my_discriminator = 42;
  b.your_discriminator = 43;
  std::uint8_t bb[BfdHeader::kSize];
  b.write(bb);
  auto br = BfdHeader::read(bb);
  ASSERT_TRUE(br.has_value());
  EXPECT_EQ(br->my_discriminator, 42u);
  EXPECT_EQ(br->your_discriminator, 43u);
}

TEST(Parser, PlainUdp) {
  UdpFlowSpec spec;
  spec.tuple = tuple(5000, 6000);
  auto pkt = build_udp_packet(spec);
  const auto p = parse_packet(pkt->bytes());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ip.src, spec.tuple.src_ip);
  EXPECT_EQ(p->l4_src, 5000);
  EXPECT_EQ(p->l4_dst, 6000);
  EXPECT_FALSE(p->vxlan.has_value());
  EXPECT_FALSE(p->is_protocol_packet());
  EXPECT_EQ(p->flow_tuple(), spec.tuple);
  EXPECT_EQ(p->tenant_vni(), 0u);
}

TEST(Parser, VxlanInnerTupleWins) {
  VxlanFlowSpec spec;
  spec.vni = 4242;
  spec.outer = FiveTuple{Ipv4Address::from_octets(172, 16, 0, 1),
                         Ipv4Address::from_octets(172, 16, 0, 2), 33333,
                         kVxlanPort, IpProto::kUdp};
  spec.inner.tuple = tuple(1111, 2222);
  auto pkt = build_vxlan_packet(spec);
  const auto p = parse_packet(pkt->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->vxlan.has_value());
  EXPECT_EQ(p->tenant_vni(), 4242u);
  ASSERT_TRUE(p->inner_ip.has_value());
  EXPECT_EQ(p->flow_tuple(), spec.inner.tuple);
  EXPECT_EQ(p->inner_l4_src, 1111);
}

TEST(Parser, BgpAndBfdAreProtocolPackets) {
  UdpFlowSpec spec;
  spec.tuple = tuple(10000, kBgpPort);
  spec.tuple.proto = IpProto::kTcp;
  auto bgp = build_tcp_packet(spec, 0x10 /*ACK*/);
  auto p = parse_packet(bgp->bytes());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_protocol_packet());

  BfdHeader bfd;
  auto bfd_pkt = build_bfd_packet(tuple(49152, 0), bfd);
  p = parse_packet(bfd_pkt->bytes());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_protocol_packet());
}

TEST(Parser, TruncatedFrameRejected) {
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(parse_packet(tiny).has_value());
}

TEST(Parser, RejectsEtherTypesOutsideTheParseGraph) {
  // All-zero synthetic frames carry EtherType 0.
  const std::vector<std::uint8_t> zeros(256, 0);
  EXPECT_FALSE(parse_packet(zeros).has_value());

  UdpFlowSpec spec;
  spec.tuple = tuple();
  const auto pkt = build_udp_packet(spec);
  std::vector<std::uint8_t> frame(pkt->bytes().begin(), pkt->bytes().end());
  ASSERT_TRUE(parse_packet(frame).has_value());
  frame[12] = 0x08;  // ARP
  frame[13] = 0x06;
  EXPECT_FALSE(parse_packet(frame).has_value());

  // An 802.1Q tag in front of IPv4 parses; one wrapping ARP does not.
  const auto tagged = [&frame](std::uint16_t inner) {
    std::vector<std::uint8_t> out(frame.begin(), frame.begin() + 12);
    out.push_back(0x81);
    out.push_back(0x00);
    VlanTag tag;
    tag.vlan_id = 42;
    tag.inner_ether_type = inner;
    std::uint8_t buf[VlanTag::kSize];
    tag.write(buf);
    out.insert(out.end(), buf, buf + VlanTag::kSize);
    out.insert(out.end(), frame.begin() + EthernetHeader::kSize, frame.end());
    return out;
  };
  const auto ok = parse_packet(tagged(0x0800));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->flow_tuple(), tuple());
  EXPECT_FALSE(parse_packet(tagged(0x0806)).has_value());
}

TEST(Parser, AnnotateFillsMetadata) {
  VxlanFlowSpec spec;
  spec.vni = 99;
  spec.outer = tuple(40000, kVxlanPort);
  spec.inner.tuple = tuple(1, 2);
  auto pkt = build_vxlan_packet(spec);
  pkt->vni = 0;
  pkt->tuple = FiveTuple{};
  ASSERT_TRUE(parse_and_annotate(*pkt).has_value());
  EXPECT_EQ(pkt->vni, 99u);
  EXPECT_EQ(pkt->tuple, spec.inner.tuple);
}

TEST(Parser, GeneveOverlayRoundTrip) {
  VxlanFlowSpec spec;
  spec.vni = 0xBEEF1;
  spec.outer = FiveTuple{Ipv4Address::from_octets(172, 16, 1, 1),
                         Ipv4Address::from_octets(172, 16, 1, 2), 40001,
                         kGenevePort, IpProto::kUdp};
  spec.inner.tuple = tuple(2222, 3333);
  // Two option words: Sailfish's PHV wall made exactly this impossible.
  auto pkt = build_geneve_packet(spec, /*opt_len_words=*/2);
  const auto p = parse_packet(pkt->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->geneve.has_value());
  EXPECT_FALSE(p->vxlan.has_value());
  EXPECT_EQ(p->tenant_vni(), 0xBEEF1u);
  EXPECT_EQ(p->geneve->opt_len_words, 2);
  ASSERT_TRUE(p->inner_ip.has_value());
  EXPECT_EQ(p->flow_tuple(), spec.inner.tuple);
}

}  // namespace
}  // namespace albatross
