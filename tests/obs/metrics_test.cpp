#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fhmip::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddAndGoNegative) {
  Gauge g;
  g.set(5);
  g.add(-8);
  EXPECT_EQ(g.value(), -3);
  g.add(3);
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, ValueOnUpperBoundLandsInThatBucket) {
  // Bucket i counts value <= bounds[i]; an observation exactly on an upper
  // bound must land IN that bucket, not the next one.
  Histogram h({10, 20, 50});
  h.observe(10.0);
  h.observe(20.0);
  h.observe(50.0);
  EXPECT_EQ(h.bucket_count(0), 1u);  // (-inf, 10]
  EXPECT_EQ(h.bucket_count(1), 1u);  // (10, 20]
  EXPECT_EQ(h.bucket_count(2), 1u);  // (20, 50]
  EXPECT_EQ(h.bucket_count(3), 0u);  // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 80.0);
}

TEST(Histogram, OverflowBucketCatchesValuesAboveLastBound) {
  Histogram h({1, 2});
  h.observe(2.0000001);
  h.observe(1e9);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.num_buckets(), 3u);
}

TEST(Histogram, BoundsAreSortedAndDeduplicatedAtConstruction) {
  Histogram h({50, 10, 20, 10});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 10);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 20);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 50);
  h.observe(15);
  EXPECT_EQ(h.bucket_count(1), 1u);
}

TEST(Histogram, BoundlessHistogramOnlyOverflows) {
  Histogram h({});
  h.observe(-1);
  h.observe(7);
  EXPECT_EQ(h.num_buckets(), 1u);
  EXPECT_EQ(h.bucket_count(0), 2u);
}

TEST(MetricsRegistry, ReRegistrationReturnsTheSameSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("link/x/delivered");
  Counter& b = reg.counter("link/x/delivered");
  EXPECT_EQ(&a, &b);  // shared series, O(1) increments through either ref
  a.inc();
  b.inc();
  EXPECT_EQ(reg.counter("link/x/delivered").value(), 2u);

  Gauge& g1 = reg.gauge("q");
  Gauge& g2 = reg.gauge("q");
  EXPECT_EQ(&g1, &g2);

  // Histogram re-registration keeps the original bounds.
  Histogram& h1 = reg.histogram("h", {1, 2, 3});
  Histogram& h2 = reg.histogram("h", {99});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);
}

TEST(MetricsRegistry, ReferencesStayValidAcrossLaterRegistrations) {
  // Node-based map storage: hot-path pointers resolved at construction must
  // survive arbitrarily many later registrations.
  MetricsRegistry reg;
  Counter* first = &reg.counter("a");
  for (int i = 0; i < 200; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  first->inc(7);
  EXPECT_EQ(reg.find_counter("a")->value(), 7u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("yes").inc();
  EXPECT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, TextExportIsNameSorted) {
  MetricsRegistry reg;
  // Registered out of order on purpose; the export must sort.
  reg.counter("z/last").inc(3);
  reg.counter("a/first").inc(1);
  reg.gauge("m/depth").set(-2);
  const std::string text = reg.format_text();
  EXPECT_EQ(text,
            "counter a/first 1\n"
            "counter z/last 3\n"
            "gauge m/depth -2\n");
}

TEST(MetricsRegistry, JsonExportIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry fwd, rev;
  const char* names[] = {"alpha", "bravo", "charlie"};
  for (int i = 0; i < 3; ++i) fwd.counter(names[i]).inc(i + 1);
  for (int i = 2; i >= 0; --i) rev.counter(names[i]).inc(i + 1);
  fwd.histogram("h", {1, 2}).observe(1.5);
  rev.histogram("h", {1, 2}).observe(1.5);
  EXPECT_EQ(fwd.to_json(), rev.to_json());
  EXPECT_EQ(fwd.format_text(), rev.format_text());
}

TEST(MetricsRegistry, JsonShapeIsEmbeddable) {
  MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(-1);
  reg.histogram("h", {10}).observe(4);
  const std::string json = reg.to_json();
  EXPECT_EQ(json,
            "{\"counters\":{\"c\":5},"
            "\"gauges\":{\"g\":-1},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":4.000000,"
            "\"bounds\":[10.000000],\"buckets\":[1,0]}}}");
  // An empty registry still renders a valid, closed object.
  EXPECT_EQ(MetricsRegistry{}.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistry, NamesWithQuotesAreEscapedInJson) {
  MetricsRegistry reg;
  reg.counter("odd\"name\\with\nnoise").inc();
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("odd\\\"name\\\\with\\nnoise"), std::string::npos);
}

}  // namespace
}  // namespace fhmip::obs
