// Tests for the public-model serialization (the PPUF's published identity).
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "ppuf/sim_model.hpp"
#include "protocol/codec.hpp"

namespace ppuf {
namespace {

PpufParams small_params() {
  PpufParams p;
  p.node_count = 8;
  p.grid_size = 4;
  return p;
}

TEST(Serialization, RoundTripPreservesEverything) {
  MaxFlowPpuf puf(small_params(), 606);
  SimulationModel original(puf);

  std::stringstream ss;
  original.save(ss);
  const SimulationModel restored = SimulationModel::load(ss);

  EXPECT_EQ(restored.layout().node_count(), original.layout().node_count());
  EXPECT_EQ(restored.layout().grid_size(), original.layout().grid_size());
  EXPECT_DOUBLE_EQ(restored.comparator_offset(),
                   original.comparator_offset());
  for (graph::EdgeId e = 0; e < original.layout().edge_count(); ++e) {
    for (int net = 0; net < 2; ++net) {
      for (int bit = 0; bit < 2; ++bit) {
        EXPECT_DOUBLE_EQ(restored.capacity(net, e, bit),
                         original.capacity(net, e, bit));
      }
    }
  }
}

TEST(Serialization, RestoredModelPredictsIdentically) {
  MaxFlowPpuf puf(small_params(), 607);
  SimulationModel original(puf);
  std::stringstream ss;
  original.save(ss);
  const SimulationModel restored = SimulationModel::load(ss);

  util::Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const Challenge c = random_challenge(puf.layout(), rng);
    const auto a = original.predict(c);
    const auto b = restored.predict(c);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_DOUBLE_EQ(a.flow_a, b.flow_a);
    EXPECT_DOUBLE_EQ(a.flow_b, b.flow_b);
  }
}

TEST(Serialization, RejectsBadHeader) {
  std::stringstream ss("not-a-model 1\n");
  EXPECT_THROW(SimulationModel::load(ss), std::runtime_error);
  std::stringstream v2("ppuf-model 2\nnodes 4 grid 2\n");
  EXPECT_THROW(SimulationModel::load(v2), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedCapacities) {
  MaxFlowPpuf puf(small_params(), 608);
  SimulationModel original(puf);
  std::stringstream ss;
  original.save(ss);
  std::string text = ss.str();
  text.resize(text.size() * 2 / 3);
  std::stringstream cut(text);
  EXPECT_THROW(SimulationModel::load(cut), std::runtime_error);
}

TEST(Serialization, RejectsInvalidGeometry) {
  std::stringstream ss(
      "ppuf-model 1\nnodes 1 grid 1\ncomparator_offset 0\n");
  EXPECT_THROW(SimulationModel::load(ss), std::runtime_error);
  std::stringstream ss2(
      "ppuf-model 1\nnodes 4 grid 9\ncomparator_offset 0\n");
  EXPECT_THROW(SimulationModel::load(ss2), std::runtime_error);
}

TEST(Serialization, RejectsNegativeCapacity) {
  std::stringstream ss(
      "ppuf-model 1\nnodes 2 grid 1\ncomparator_offset 0\n"
      "-1 1 1 1\n1 1 1 1\n");
  EXPECT_THROW(SimulationModel::load(ss), std::runtime_error);
}

TEST(Serialization, RejectsNonFiniteCapacity) {
  // PREDICT's star-cut certificate sums capacities unchecked, so the
  // binary codec (the registry and wire path) admits only finite ones.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    protocol::codec::Writer w;
    w.u32(2);    // nodes
    w.u32(1);    // grid
    w.f64(0.0);  // comparator offset
    for (int i = 0; i < 8; ++i) w.f64(i == 5 ? bad : 1e-7);
    protocol::codec::Reader r(w.bytes().data(), w.bytes().size());
    SimulationModel m;
    EXPECT_EQ(protocol::codec::decode_sim_model(r, &m).code(),
              util::StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace ppuf
