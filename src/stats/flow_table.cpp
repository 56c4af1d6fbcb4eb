#include "stats/flow_table.hpp"

#include <cstdio>

#include "stats/recorder.hpp"

namespace fhmip {

TextTable flow_table(const StatsHub& stats,
                     const std::function<std::string(FlowId)>& class_label) {
  std::vector<std::string> headers = {"flow", "sent", "delivered", "dropped",
                                      "mean ms", "p99 ms", "max ms"};
  if (class_label) headers.insert(headers.begin() + 1, "class");
  TextTable t(std::move(headers));
  for (FlowId f : stats.flows()) {
    if (f == kNoFlow) continue;
    const FlowCounters& c = stats.flow(f);
    const DelaySummary d = summarize_delays(stats.samples(f));
    char mean[32], p99[32], mx[32];
    std::snprintf(mean, sizeof(mean), "%.2f", d.mean * 1000);
    std::snprintf(p99, sizeof(p99), "%.2f", d.p99 * 1000);
    std::snprintf(mx, sizeof(mx), "%.2f", d.max * 1000);
    std::string name = "F";
    name += std::to_string(f);
    std::vector<std::string> row = {std::move(name),
                                    std::to_string(c.sent),
                                    std::to_string(c.delivered),
                                    std::to_string(c.dropped),
                                    mean, p99, mx};
    if (class_label) row.insert(row.begin() + 1, class_label(f));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace fhmip
