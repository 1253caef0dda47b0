#include <gtest/gtest.h>

#include "gnn/async_update.hpp"
#include "gnn/graph_builder.hpp"
#include "test_util.hpp"

namespace evd::gnn {
namespace {

EventGnnConfig tiny_config() {
  EventGnnConfig config;
  config.hidden = 6;
  config.layers = 2;
  config.num_classes = 3;
  return config;
}

EventGraph test_graph(Index events_count = 200) {
  const auto stream = test::make_stream(16, 16, events_count, 11);
  GraphBuildConfig config;
  config.radius = 3.0f;
  config.max_neighbors = 6;
  config.max_nodes = events_count;
  return build_graph(stream, config);
}

TEST(AsyncEventGnn, CausalLogitsMatchBatchForward) {
  EventGnn model(tiny_config());
  const EventGraph graph = test_graph();

  AsyncEventGnn async(model, /*bidirectional=*/false);
  for (Index i = 0; i < graph.node_count(); ++i) {
    std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                 graph.neighbors(i).end());
    async.insert(graph.node(i), neighbors);
  }
  ASSERT_EQ(async.node_count(), graph.node_count());

  nn::Tensor incremental({model.config().num_classes});
  async.logits_into(incremental);
  const nn::Tensor batch = model.forward(graph, false);
  ASSERT_EQ(incremental.numel(), batch.numel());
  for (Index i = 0; i < batch.numel(); ++i) {
    EXPECT_NEAR(incremental[i], batch[i], 2e-3f) << "logit " << i;
  }
}

TEST(AsyncEventGnn, CausalCostIsConstantPerEvent) {
  EventGnn model(tiny_config());
  const EventGraph graph = test_graph(300);
  AsyncEventGnn async(model, false);
  std::int64_t early_macs = 0, late_macs = 0;
  for (Index i = 0; i < graph.node_count(); ++i) {
    std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                 graph.neighbors(i).end());
    const auto stats = async.insert(graph.node(i), neighbors);
    if (i < 50) early_macs += stats.macs;
    if (i >= graph.node_count() - 50) late_macs += stats.macs;
  }
  // Per-event work does not grow with graph size (within a small factor for
  // degree variation).
  EXPECT_LT(late_macs, early_macs * 3);
}

TEST(AsyncEventGnn, CausalUpdatesTouchOnlyNewNode) {
  EventGnn model(tiny_config());
  AsyncEventGnn async(model, false);
  GraphNode a{{1, 1, 0.0f}, 1, 0};
  GraphNode b{{2, 1, 0.1f}, 1, 1000};
  async.insert(a, {});
  const auto stats = async.insert(b, std::vector<Index>{0});
  // Exactly one node evaluated per layer.
  EXPECT_EQ(stats.node_layer_recomputes, 2);
}

TEST(AsyncEventGnn, BidirectionalPropagatesToNeighbors) {
  EventGnn model(tiny_config());
  AsyncEventGnn causal(model, false);
  AsyncEventGnn bidirectional(model, true);
  const EventGraph graph = test_graph(100);
  std::int64_t causal_recomputes = 0, bidi_recomputes = 0;
  for (Index i = 0; i < graph.node_count(); ++i) {
    std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                 graph.neighbors(i).end());
    causal_recomputes += causal.insert(graph.node(i), neighbors)
                             .node_layer_recomputes;
    bidi_recomputes += bidirectional.insert(graph.node(i), neighbors)
                           .node_layer_recomputes;
  }
  EXPECT_GT(bidi_recomputes, causal_recomputes);
}

TEST(AsyncEventGnn, AsyncFarCheaperThanFullRecompute) {
  EventGnn model(tiny_config());
  const EventGraph graph = test_graph(200);
  AsyncEventGnn async(model, false);
  std::int64_t async_total = 0, full_total = 0;
  for (Index i = 0; i < graph.node_count(); ++i) {
    std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                 graph.neighbors(i).end());
    async_total += async.insert(graph.node(i), neighbors).macs;
    full_total += async.full_recompute_macs();
  }
  // The AEGNN claim: per-event processing is orders of magnitude cheaper
  // than recomputing the whole graph per event.
  EXPECT_LT(async_total * 20, full_total);
}

TEST(AsyncEventGnn, ClearResetsEverything) {
  EventGnn model(tiny_config());
  AsyncEventGnn async(model, false);
  async.insert({{1, 1, 0}, 1, 0}, {});
  async.reset();
  EXPECT_EQ(async.node_count(), 0);
  EXPECT_EQ(async.full_recompute_macs(), 0);
}

TEST(AsyncEventGnn, BadNeighborIdThrows) {
  EventGnn model(tiny_config());
  AsyncEventGnn async(model, false);
  EXPECT_THROW(async.insert({{0, 0, 0}, 1, 0}, std::vector<Index>{5}),
               std::invalid_argument);
  // The rejected insert leaves no trace.
  EXPECT_EQ(async.node_count(), 0);
}

}  // namespace
}  // namespace evd::gnn
