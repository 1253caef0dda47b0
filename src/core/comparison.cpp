#include "core/comparison.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "hw/energy_model.hpp"
#include "hw/snn_core.hpp"
#include "hw/zero_skip.hpp"

namespace evd::core {
namespace {

/// Per-family hardware energy model: the paper's §V pairs each paradigm with
/// its natural accelerator class.
hw::EnergyBreakdown pipeline_energy(const std::string& name,
                                    const nn::OpCounter& counter) {
  if (name == "CNN") {
    return hw::run_zero_skip(counter, hw::ZeroSkipConfig{}).energy;
  }
  if (name == "SNN") {
    return hw::run_snn_core(counter, hw::SnnCoreConfig{}).energy;
  }
  // GNN (and anything else): idealised int8 roll-up.
  return hw::energy_of(counter, hw::EnergyTable::digital_45nm_int8());
}

double accuracy_on(EventPipeline& pipeline,
                   std::span<const events::LabelledSample> test,
                   bool shuffle_time) {
  if (test.empty()) return 0.0;
  Index correct = 0;
  std::uint64_t seed = 99;
  for (const auto& sample : test) {
    const int predicted =
        shuffle_time
            ? pipeline.classify(shuffle_timestamps(sample.stream, seed++))
            : pipeline.classify(sample.stream);
    correct += (predicted == sample.label) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace

MetricSet ComparisonHarness::measure(
    EventPipeline& pipeline, std::span<const events::LabelledSample> test) {
  MetricSet m;
  m.pipeline = pipeline.name();

  // Accuracy and its time-shuffled control.
  m.accuracy = accuracy_on(pipeline, test, false);
  m.temporal_delta_accuracy =
      m.accuracy - accuracy_on(pipeline, test, true);

  // Per-inference counters over the probe subset.
  const Index probes =
      std::min<Index>(config_.probe_samples, static_cast<Index>(test.size()));
  nn::OpCounter counter;
  {
    nn::ScopedCounter scope(counter);
    for (Index i = 0; i < probes; ++i) {
      (void)pipeline.classify(test[static_cast<size_t>(i)].stream);
    }
  }
  if (probes > 0) {
    m.ops_per_inference = counter.total_ops() / probes;
    m.bandwidth_bytes = counter.total_bytes() / probes;
  }
  const hw::EnergyBreakdown energy = pipeline_energy(m.pipeline, counter);
  m.energy_uj = energy.total_uj() / std::max<Index>(probes, 1);
  m.memory_energy_fraction = energy.memory_fraction();

  // Sparsity axes on the first probe stream.
  if (!test.empty()) {
    m.data_sparsity = pipeline.input_sparsity(test[0].stream);
    m.compute_sparsity = pipeline.computation_sparsity(test[0].stream);
  }

  m.preparation_bytes = pipeline.input_preparation_bytes();
  m.param_count = pipeline.param_count();
  m.memory_footprint_bytes = m.param_count * 4 + pipeline.state_bytes();

  // Retrain-free geometry change probe: double the sensor, re-place events.
  {
    events::EventStream grown;
    grown.width = config_.classification.dataset.width * 2;
    grown.height = config_.classification.dataset.height * 2;
    if (!test.empty()) {
      grown.events = test[0].stream.events;
      for (auto& e : grown.events) {
        e.x = static_cast<std::int16_t>(e.x * 2);
        e.y = static_cast<std::int16_t>(e.y * 2);
      }
    }
    try {
      (void)pipeline.classify(grown);
      m.resolution_flexible = true;
    } catch (const std::exception&) {
      m.resolution_flexible = false;
    }
  }

  // Streaming latency over onset trials.
  {
    const auto& streaming = config_.streaming;
    double first_sum = 0.0, correct_sum = 0.0;
    Index trials_done = 0;
    for (Index trial = 0; trial < streaming.trials; ++trial) {
      const int label = static_cast<int>(
          trial % config_.classification.dataset.num_classes);
      // Jittered onsets sample the clocked pipelines' periods uniformly.
      const TimeUs onset_us = streaming.onset_us + trial * 3777;
      const auto onset = events::make_onset_stream(
          config_.classification.dataset, label, onset_us,
          streaming.duration_us, 1234 + static_cast<std::uint64_t>(trial));
      auto session =
          pipeline.open_session(config_.classification.dataset.width,
                                config_.classification.dataset.height);
      for (const auto& e : onset.stream.events) session->feed(e);
      session->advance_to(streaming.duration_us);

      std::vector<Decision> decisions;
      session->drain(decisions);
      double first = NAN, first_correct = NAN;
      for (const auto& d : decisions) {
        // Strictly after onset: a decision at t == onset can only have seen
        // pre-onset data.
        if (d.t <= onset.onset_us || d.label < 0) continue;
        if (d.confidence < streaming.confidence_gate) continue;
        if (std::isnan(first)) {
          first = static_cast<double>(d.t - onset.onset_us);
        }
        if (std::isnan(first_correct) && d.label == label) {
          first_correct = static_cast<double>(d.t - onset.onset_us);
        }
        if (!std::isnan(first) && !std::isnan(first_correct)) break;
      }
      const double censor =
          static_cast<double>(streaming.duration_us - streaming.onset_us);
      first_sum += std::isnan(first) ? censor : first;
      correct_sum += std::isnan(first_correct) ? censor : first_correct;
      ++trials_done;
    }
    if (trials_done > 0) {
      m.first_decision_latency_us = first_sum / static_cast<double>(trials_done);
      m.first_correct_latency_us =
          correct_sum / static_cast<double>(trials_done);
    }
  }
  return m;
}

ComparisonResult ComparisonHarness::run() {
  if (pipelines_.empty()) {
    throw std::logic_error("ComparisonHarness::run: no pipelines registered");
  }
  events::ShapeDataset dataset(config_.classification.dataset);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(config_.classification.train_per_class,
                     config_.classification.test_per_class, train, test);

  ComparisonResult result;
  for (auto* pipeline : pipelines_) {
    if (config_.verbose) {
      std::printf("== training %s ==\n", pipeline->name().c_str());
    }
    pipeline->train(train, config_.classification.training);
    if (config_.verbose) {
      std::printf("== measuring %s ==\n", pipeline->name().c_str());
    }
    result.metrics.push_back(measure(*pipeline, test));
  }
  return result;
}

Table ComparisonResult::measurement_table() const {
  std::vector<std::string> header = {"Axis (measured)"};
  for (const auto& m : metrics) header.push_back(m.pipeline);
  Table table(header);

  auto row = [&](const std::string& axis, auto getter) {
    std::vector<std::string> cells = {axis};
    for (const auto& m : metrics) cells.push_back(getter(m));
    table.add_row(cells);
  };
  row("Temporal info: acc drop when time shuffled", [](const MetricSet& m) {
    return Table::num(m.temporal_delta_accuracy, 3);
  });
  row("Data sparsity (1 - consumed/dense)", [](const MetricSet& m) {
    return Table::num(m.data_sparsity, 3);
  });
  row("Data preparation [bytes]", [](const MetricSet& m) {
    return Table::eng(static_cast<double>(m.preparation_bytes));
  });
  row("Computation sparsity", [](const MetricSet& m) {
    return Table::num(m.compute_sparsity, 3);
  });
  row("Operations / inference", [](const MetricSet& m) {
    return Table::eng(static_cast<double>(m.ops_per_inference));
  });
  row("Accuracy", [](const MetricSet& m) { return Table::num(m.accuracy, 3); });
  row("Parameters", [](const MetricSet& m) {
    return Table::eng(static_cast<double>(m.param_count));
  });
  row("Memory footprint [bytes]", [](const MetricSet& m) {
    return Table::eng(static_cast<double>(m.memory_footprint_bytes));
  });
  row("Memory bandwidth [bytes/inf]", [](const MetricSet& m) {
    return Table::eng(static_cast<double>(m.bandwidth_bytes));
  });
  row("Energy [uJ/inf] (hw model)", [](const MetricSet& m) {
    return Table::num(m.energy_uj, 3);
  });
  row("  of which memory", [](const MetricSet& m) {
    return Table::num(m.memory_energy_fraction * 100.0, 1) + "%";
  });
  row("Resolution change w/o retrain", [](const MetricSet& m) {
    return m.resolution_flexible ? "yes" : "no";
  });
  row("First decision after onset [us]", [](const MetricSet& m) {
    return Table::num(m.first_decision_latency_us, 0);
  });
  row("First correct decision [us]", [](const MetricSet& m) {
    return Table::num(m.first_correct_latency_us, 0);
  });
  return table;
}

Table ComparisonResult::rating_table() const {
  // Grades follow pipeline registration order; the paper columns are fixed
  // {SNN, CNN, GNN}, so look pipelines up by name.
  auto find = [&](const char* name) -> const MetricSet* {
    for (const auto& m : metrics) {
      if (m.pipeline == name) return &m;
    }
    return nullptr;
  };
  const MetricSet* snn = find("SNN");
  const MetricSet* cnn = find("CNN");
  const MetricSet* gnn = find("GNN");
  if (snn == nullptr || cnn == nullptr || gnn == nullptr) {
    throw std::logic_error(
        "rating_table: requires SNN, CNN and GNN pipelines");
  }

  Table table({"Axis", "SNN", "CNN", "GNN", "paper SNN", "paper CNN",
               "paper GNN"});
  const auto& paper = paper_table1();

  auto add = [&](size_t paper_row, std::vector<Rating> grades) {
    const auto& p = paper[paper_row];
    table.add_row({p.axis, rating_symbol(grades[0]), rating_symbol(grades[1]),
                   rating_symbol(grades[2]), p.snn, p.cnn, p.gnn});
  };
  auto triple = [&](auto getter) {
    return std::vector<double>{getter(*snn), getter(*cnn), getter(*gnn)};
  };

  add(0, grade_larger_better(triple([](const MetricSet& m) {
        return m.temporal_delta_accuracy;
      }),
      /*tie_factor=*/1.5, /*fail_factor=*/4.0));
  add(1, grade_larger_better(triple([](const MetricSet& m) {
        return m.data_sparsity;
      }),
      1.2, 3.0));
  add(2, grade_smaller_better(triple([](const MetricSet& m) {
        return static_cast<double>(m.preparation_bytes);
      })));
  add(3, grade_larger_better(triple([](const MetricSet& m) {
        return m.compute_sparsity;
      }),
      1.2, 3.0));
  add(4, grade_smaller_better(triple([](const MetricSet& m) {
        return static_cast<double>(m.ops_per_inference);
      })));
  add(5, grade_larger_better(triple([](const MetricSet& m) {
        return m.accuracy;
      }),
      /*tie_factor=*/1.05, /*fail_factor=*/1.5));
  // Hardware maturity is not measurable in software: documented constants
  // (paper refs: CNN accelerators are an industry; SNN cores exist in
  // silicon; event-GNN hardware does not exist).
  {
    const auto& p = paper[6];
    table.add_row({p.axis, "+", "++", "-", p.snn, p.cnn, p.gnn});
  }
  add(7, grade_smaller_better(triple([](const MetricSet& m) {
        return static_cast<double>(m.memory_footprint_bytes);
      })));
  add(8, grade_smaller_better(triple([](const MetricSet& m) {
        return static_cast<double>(m.bandwidth_bytes);
      })));
  add(9, grade_smaller_better(triple([](const MetricSet& m) {
        return m.energy_uj;
      })));
  {
    const auto& p = paper[10];
    auto symbol = [](const MetricSet& m) {
      return m.resolution_flexible ? "++" : "-";
    };
    table.add_row(
        {p.axis, symbol(*snn), symbol(*cnn), symbol(*gnn), p.snn, p.cnn,
         p.gnn});
  }
  add(11, grade_smaller_better(triple([](const MetricSet& m) {
        return m.first_decision_latency_us;
      }),
      /*tie_factor=*/1.5, /*fail_factor=*/3.0));
  return table;
}

}  // namespace evd::core
