#include <gtest/gtest.h>

#include <cstring>

#include "gnn/graph_conv.hpp"
#include "nn/softmax.hpp"
#include "test_util.hpp"

namespace evd::gnn {
namespace {

EventGraph chain_graph() {
  EventGraph graph;
  graph.add_node({{0, 0, 0.0f}, 1, 0}, {});
  graph.add_node({{1, 0, 0.1f}, -1, 1000}, {0});
  graph.add_node({{2, 1, 0.2f}, 1, 2000}, {0, 1});
  graph.add_node({{3, 1, 0.3f}, 1, 3000}, {1, 2});
  return graph;
}

nn::Tensor features_for(const EventGraph& graph) {
  const auto raw = graph.input_features();
  nn::Tensor h({graph.node_count(), 2});
  std::copy(raw.begin(), raw.end(), h.data());
  return h;
}

TEST(GraphConv, OutputShapeAndFiniteness) {
  Rng rng(1);
  GraphConv conv(2, 5, rng);
  const auto graph = chain_graph();
  const nn::Tensor out = conv.forward(graph, features_for(graph), false);
  EXPECT_EQ(out.dim(0), 4);
  EXPECT_EQ(out.dim(1), 5);
  for (Index i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
    EXPECT_GE(out[i], 0.0f);  // post-ReLU
  }
}

TEST(GraphConv, GradCheckParamsAndInput) {
  Rng rng(2);
  GraphConv conv(2, 3, rng);
  const auto graph = chain_graph();
  nn::Tensor h = features_for(graph);
  // Perturb features away from {0,1} so ReLU/max boundaries aren't razor
  // thin for the numeric probe.
  Rng jitter(3);
  for (Index i = 0; i < h.numel(); ++i) {
    h[i] += static_cast<float>(jitter.uniform(0.05, 0.3));
  }

  auto scalar_loss = [&](const nn::Tensor& out) {
    nn::Tensor flat = out;
    flat.reshape({out.numel()});
    return nn::softmax_cross_entropy(flat, 2);
  };

  const nn::Tensor out = conv.forward(graph, h, true);
  auto ce = scalar_loss(out);
  nn::Tensor grad = ce.grad;
  grad.reshape({4, 3});
  const nn::Tensor grad_h = conv.backward(grad);

  auto loss_of_input = [&](const nn::Tensor& probe) {
    return scalar_loss(conv.forward(graph, probe, false)).loss;
  };
  test::expect_gradients_close(grad_h,
                               test::numeric_gradient(loss_of_input, h));

  for (auto* param : conv.params()) {
    auto loss_of_param = [&](const nn::Tensor& w) {
      nn::Tensor saved = param->value;
      param->value = w;
      const double loss = scalar_loss(conv.forward(graph, h, false)).loss;
      param->value = saved;
      return loss;
    };
    test::expect_gradients_close(
        param->grad, test::numeric_gradient(loss_of_param, param->value));
  }
}

TEST(GraphConv, ApplyNodeMatchesBatchForward) {
  Rng rng(4);
  GraphConv conv(2, 4, rng);
  const auto graph = chain_graph();
  const nn::Tensor h = features_for(graph);
  const nn::Tensor batch = conv.forward(graph, h, false);

  // Node 3 via the async single-node path.
  const auto& p3 = graph.node(3).position;
  std::vector<GraphConv::NeighborRef> refs;
  for (const Index j : graph.neighbors(3)) {
    const auto& pj = graph.node(j).position;
    refs.push_back({h.data() + j * 2, pj.x - p3.x, pj.y - p3.y, pj.z - p3.z});
  }
  std::vector<float> out(4);
  conv.apply_node(h.data() + 3 * 2, refs, out.data());
  for (Index o = 0; o < 4; ++o) {
    EXPECT_NEAR(out[static_cast<size_t>(o)], batch.at2(3, o), 1e-5f);
  }
}

/// apply_node on node 3 of chain_graph() for a 2 -> 4 conv.
std::vector<float> apply_node3(const GraphConv& conv) {
  const auto graph = chain_graph();
  const nn::Tensor h = features_for(graph);
  const auto& p3 = graph.node(3).position;
  std::vector<GraphConv::NeighborRef> refs;
  for (const Index j : graph.neighbors(3)) {
    const auto& pj = graph.node(j).position;
    refs.push_back({h.data() + j * 2, pj.x - p3.x, pj.y - p3.y, pj.z - p3.z});
  }
  std::vector<float> out(4);
  conv.apply_node(h.data() + 3 * 2, refs, out.data());
  return out;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(GraphConv, ParamsThawsSoEditedWeightsAreServed) {
  Rng rng(9);
  GraphConv conv(2, 4, rng);
  EXPECT_FALSE(conv.frozen());
  conv.freeze();
  ASSERT_TRUE(conv.frozen());
  const std::vector<float> before = apply_node3(conv);

  const std::vector<nn::Param*> params = conv.params();
  EXPECT_FALSE(conv.frozen());
  for (nn::Param* p : params) {
    for (Index i = 0; i < p->value.numel(); ++i) p->value[i] += 1.0f;
  }

  Rng fresh_rng(9);
  GraphConv fresh(2, 4, fresh_rng);
  const std::vector<nn::Param*> fresh_params = fresh.params();
  for (size_t i = 0; i < params.size(); ++i) {
    fresh_params[i]->value = params[i]->value;
  }
  fresh.freeze();
  const std::vector<float> expected = apply_node3(fresh);
  EXPECT_FALSE(bitwise_equal(before, expected));

  // Thawed (gather fallback), then re-frozen from the edited weights.
  EXPECT_TRUE(bitwise_equal(apply_node3(conv), expected));
  conv.freeze();
  EXPECT_TRUE(bitwise_equal(apply_node3(conv), expected));
}

TEST(GraphConv, IsolatedNodeUsesSelfPathOnly) {
  Rng rng(5);
  GraphConv conv(2, 3, rng);
  EventGraph graph;
  graph.add_node({{0, 0, 0}, 1, 0}, {});
  nn::Tensor h({1, 2});
  h.at2(0, 0) = 1.0f;
  const nn::Tensor out = conv.forward(graph, h, false);
  EXPECT_EQ(out.dim(0), 1);  // no crash, bias+self only
}

TEST(GraphConv, OffsetsInfluenceOutput) {
  // Two graphs identical except one neighbour's position: outputs differ,
  // proving relative spatiotemporal offsets enter the kernel.
  Rng rng(6);
  GraphConv conv(2, 3, rng);
  EventGraph near_graph;
  near_graph.add_node({{0, 0, 0}, 1, 0}, {});
  near_graph.add_node({{1, 0, 0}, 1, 10}, {0});
  EventGraph far_graph;
  far_graph.add_node({{0, 0, 0}, 1, 0}, {});
  far_graph.add_node({{1, 0, 2.0f}, 1, 10}, {0});  // later in time (z)
  nn::Tensor h({2, 2});
  h.at2(0, 0) = 1.0f;
  h.at2(1, 0) = 1.0f;
  const nn::Tensor a = conv.forward(near_graph, h, false);
  const nn::Tensor b = conv.forward(far_graph, h, false);
  bool any_differ = false;
  for (Index o = 0; o < 3; ++o) {
    if (std::abs(a.at2(1, o) - b.at2(1, o)) > 1e-6f) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(GraphConv, ShapeErrors) {
  Rng rng(7);
  GraphConv conv(2, 3, rng);
  const auto graph = chain_graph();
  EXPECT_THROW(conv.forward(graph, nn::Tensor({4, 3}), false),
               std::invalid_argument);
  EXPECT_THROW(conv.backward(nn::Tensor({4, 3})), std::logic_error);
}

}  // namespace
}  // namespace evd::gnn
