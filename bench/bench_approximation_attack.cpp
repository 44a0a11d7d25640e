// Extension bench: does approximate computing break the ESG?
//
// Section 2 argues the ESG survives approximation because eps-approximate
// max-flow still costs Omega(n^2).  But the attacker doesn't need the
// *flow* — only the comparator's *bit*, i.e. the sign of F_A - F_B.  This
// bench measures, on real PPUF instances:
//   1. certified (1-eps) scaling augmentation: speedup vs bit accuracy;
//   2. O(n) structural heuristics (trivial cut bound, two-hop flow):
//      essentially free — how often do they recover the bit?
//   3. the certified star-cut simulator (protocol::prove_by_certificate):
//      time per round against push-relabel, and whether the real Verifier
//      accepts its flow witness at the serving tolerance.
//
// Headline structural finding of this reproduction (also printed below):
// on a complete graph with strictly positive i.i.d. capacities, every
// non-terminal cut crosses >= 2(n-2) edges versus the terminal stars'
// n-1, so the minimum cut is (w.h.p.) the source or sink star and the
// max-flow VALUE equals min(out-cap(s), in-cap(t)) — an O(n) computation.
// The response *bit* therefore carries no ESG.  The WITNESS the paper's
// verification asks for (Section 3.2, the flow function) is Theta(n^2) in
// size, but it does not need a full max-flow solve either: a greedy
// 1/2/3-hop routing that saturates the smaller star builds a feasible flow
// of the star value in O(n^2) for almost every challenge, and a feasible
// flow equal to a cut's capacity is maximum.  The Verifier accepts it, so
// the impostor the deadline must beat is this certified simulator, not a
// push-relabel solve.
#include <cmath>
#include <iostream>

#include "attack/heuristic.hpp"
#include "bench_common.hpp"
#include "maxflow/approximate.hpp"
#include "maxflow/star_certificate.hpp"
#include "protocol/authentication.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"

using namespace ppuf;

int main() {
  util::print_banner(std::cout,
                     "Extension: approximate/heuristic bit-recovery attacks");
  PpufParams params;
  params.node_count = 40;
  params.grid_size = 8;
  MaxFlowPpuf puf(params, 2211);
  SimulationModel model(puf);
  util::Rng rng(5);

  const std::size_t trials = bench::scaled(60, 30);
  std::vector<Challenge> cs;
  std::vector<int> truth;
  for (std::size_t i = 0; i < trials; ++i) {
    cs.push_back(random_challenge(puf.layout(), rng));
    truth.push_back(model.predict(cs.back()).bit);
  }

  // Exact solve cost reference.
  std::uint64_t exact_work = 0;
  {
    const auto solver = maxflow::make_solver(maxflow::Algorithm::kDinic);
    for (const Challenge& c : cs) {
      for (int net = 0; net < 2; ++net) {
        const graph::Digraph g = model.build_graph(net, c);
        exact_work += solver->solve({&g, c.source, c.sink}).work;
      }
    }
  }

  util::Table t({"attack", "bit accuracy", "work vs exact"});
  for (const double eps : {0.02, 0.1, 0.3, 0.6}) {
    std::size_t correct = 0;
    std::uint64_t work = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      double flows[2];
      for (int net = 0; net < 2; ++net) {
        const graph::Digraph g = model.build_graph(net, cs[i]);
        const maxflow::ApproximateResult r = maxflow::solve_approximate(
            {&g, cs[i].source, cs[i].sink}, eps);
        flows[net] = r.value;
        work += r.work;
      }
      const int bit =
          (flows[0] - flows[1] + model.comparator_offset()) > 0.0 ? 1 : 0;
      correct += bit == truth[i] ? 1 : 0;
    }
    t.add_row({"(1-" + util::Table::num(eps, 2) + ")-approx scaling",
               util::Table::num(static_cast<double>(correct) / trials, 3),
               util::Table::num(static_cast<double>(work) / exact_work, 3)});
  }
  {
    std::size_t cut_ok = 0, hop_ok = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      cut_ok += attack::predict_bit_cut_bound(model, cs[i]) == truth[i];
      hop_ok += attack::predict_bit_two_hop(model, cs[i]) == truth[i];
    }
    t.add_row({"O(n) cut bound",
               util::Table::num(static_cast<double>(cut_ok) / trials, 3),
               "~0 (n ops)"});
    t.add_row({"O(n) two-hop flow",
               util::Table::num(static_cast<double>(hop_ok) / trials, 3),
               "~0 (n ops)"});
  }
  {
    // Certified star-cut witness, falling back to push-relabel on a miss.
    std::size_t correct = 0;
    std::uint64_t work = 0;
    const auto fallback =
        maxflow::make_solver(maxflow::Algorithm::kPushRelabel);
    maxflow::FlowResult cert;
    for (std::size_t i = 0; i < trials; ++i) {
      double flows[2];
      for (int net = 0; net < 2; ++net) {
        const graph::Digraph g = model.build_graph(net, cs[i]);
        const graph::FlowProblem problem{&g, cs[i].source, cs[i].sink};
        if (!maxflow::star_certificate(problem, &cert))
          cert = fallback->solve(problem);
        flows[net] = cert.value;
        work += cert.work;
      }
      const int bit =
          (flows[0] - flows[1] + model.comparator_offset()) > 0.0 ? 1 : 0;
      correct += bit == truth[i] ? 1 : 0;
    }
    t.add_row({"certified star-cut witness",
               util::Table::num(static_cast<double>(correct) / trials, 3),
               util::Table::num(static_cast<double>(work) / exact_work, 3)});
  }
  t.print(std::cout);

  // The certified simulator as an impostor: wall-clock per round against
  // the push-relabel impostor, and the real Verifier's verdict at the
  // serving tolerance (10% of the mean capacity, as the registry serves).
  {
    const protocol::Verifier verifier(model, 1e9,
                                      0.10 * model.mean_capacity());
    double cert_seconds = 0.0, sim_seconds = 0.0;
    std::size_t accepted = 0;
    for (const Challenge& c : cs) {
      const protocol::ProverReport cert =
          protocol::prove_by_certificate(model, c);
      const protocol::ProverReport sim =
          protocol::prove_by_simulation(model, c);
      cert_seconds += cert.elapsed_seconds;
      sim_seconds += sim.elapsed_seconds;
      accepted += verifier.verify(c, cert).accepted ? 1 : 0;
    }
    const double per_round = 1e6 / static_cast<double>(trials);
    std::cout << "\ncertified simulator (n=" << params.node_count
              << "): " << util::Table::num(cert_seconds * per_round, 3)
              << " us/round vs push-relabel "
              << util::Table::num(sim_seconds * per_round, 3)
              << " us/round ("
              << util::Table::num(sim_seconds / cert_seconds, 3)
              << "x faster); Verifier accepts " << accepted << "/" << trials
              << " of its reports at the serving tolerance.\n";
  }

  // Why the cut bound is (near) perfect: the terminal star is the minimum
  // cut, so the bound IS the max flow.
  std::size_t equal = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const double f = model.predicted_flow(0, cs[i]);
    if (attack::cut_bound_value(model, 0, cs[i]) <= f * (1.0 + 1e-9))
      ++equal;
  }
  std::cout << "\nstructural check: max-flow == min(out-cap(s), in-cap(t)) "
               "in "
            << equal << "/" << trials
            << " instances — on complete graphs the flow VALUE is O(n)-"
               "computable, so the comparator bit alone carries no ESG.\n";
  std::cout << "consequence: authentication must demand the Theta(n^2) "
               "flow witness (the residual edges of Sec. 3.2, as "
               "src/protocol does), but the certified simulator above "
               "writes a verified maximum flow in O(n^2): the deadline has "
               "to sit below its time, not below a push-relabel solve.\n";
  bench::paper_note(
      "the paper's O(n^2) lower bound covers flow computation; this bench "
      "shows the flow *value* (hence the bare response bit) escapes it on "
      "complete graphs, and that a greedy star-cut witness meets the "
      "bound itself: on these instances the ESG is against an O(n^2) "
      "simulator.");
  return 0;
}
