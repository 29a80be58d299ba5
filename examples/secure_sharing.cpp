// Secure sharing walkthrough: drives the runtime protocol engine through the
// paper's §6 scenarios — a peer-served document with an integrity watermark,
// a tampering peer being caught and recovered from, and an audit of the
// message trace demonstrating requester/holder anonymity.
#include <iostream>

#include "runtime/system.hpp"

int main() {
  using namespace baps;

  runtime::BapsSystem::Params params;
  params.num_clients = 4;
  params.proxy_cache_bytes = 8 << 10;  // deliberately small proxy
  params.browser_cache_bytes = 64 << 10;
  params.seed = 99;
  runtime::BapsSystem sys(params);

  const runtime::Url page = "http://news.example/frontpage.html";

  std::cout << "== 1. Alice (client0) fetches the page ==\n";
  auto out = sys.browse(0, page);
  std::cout << "served from " << runtime::source_name(out.source)
            << ", watermark verified: " << (out.verified ? "yes" : "no")
            << "\n\n";

  std::cout << "== 2. Churn evicts it from the tiny proxy cache ==\n";
  for (int i = 0; i < 40; ++i) {
    sys.browse(3, "http://filler.example/" + std::to_string(i));
  }
  std::cout << "proxy cache flushed; Alice's browser still holds the page\n\n";

  std::cout << "== 3. Bob (client1) requests the same page ==\n";
  sys.messages().clear();
  out = sys.browse(1, page);
  std::cout << "served from " << runtime::source_name(out.source)
            << " (peer-to-peer!), verified: " << (out.verified ? "yes" : "no")
            << "\n\nMessage audit (what each party could observe):\n";
  for (const runtime::MsgRecord& m : sys.messages().log()) {
    std::cout << "  " << m.from << " -> " << m.to << " : "
              << runtime::msg_kind_name(m.kind) << "\n";
  }
  std::cout << "Note: the peer-fetch to Alice names only the proxy — she "
               "never learns that\nBob asked; Bob never learns the copy came "
               "from Alice (§6.2).\n\n";

  std::cout << "== 4. Mallory (client2) caches the page, then turns "
               "malicious ==\n";
  sys.browse(2, page);
  // Make Mallory the only indexed holder: Alice's and Bob's browsers churn
  // through other content until their copies are honestly evicted (each
  // eviction sends the §2 invalidation message to the proxy's index).
  for (int i = 0; i < 120; ++i) {
    sys.browse(0, "http://alice.example/" + std::to_string(i));
    sys.browse(1, "http://bob.example/" + std::to_string(i));
  }
  for (int i = 40; i < 80; ++i) {
    sys.browse(3, "http://filler.example/" + std::to_string(i));
  }
  sys.set_tampering(2, true);

  std::cout << "== 5. Carol (client3) requests the page ==\n";
  out = sys.browse(3, page);
  std::cout << "tampering detected and recovered: "
            << (out.tamper_recovered ? "yes" : "no") << "; final copy from "
            << runtime::source_name(out.source)
            << ", verified: " << (out.verified ? "yes" : "no") << "\n";
  std::cout << "total tamper detections: " << sys.tamper_detections()
            << ", false forwards: " << sys.false_forwards() << "\n\n";
  std::cout << "No client can forge the proxy's RSA watermark, so corrupted "
               "peer copies are\nalways caught at the requester and re-served "
               "from the origin (§6.1).\n\n";
  return 0;
}
