// Include-hygiene pin: every public header in src/ (src/*/*.h), included
// together in sorted order, so no header can rely on a same-directory
// sibling being included first. tests/CMakeLists.txt generates the include
// list from a glob at configure time, so the list is exhaustive by
// construction; a header that is not self-sufficient or collides with
// another (macro leak, ODR clash) breaks this translation unit.

#include "all_public_headers.h"

#include <gtest/gtest.h>

namespace mto {
namespace {

TEST(BuildSanityTest, AllPublicHeadersCompileTogether) {
  // The assertion is the compile itself; instantiate a couple of core types
  // to keep the TU from being optimized into nothing.
  Graph g(3, {{0, 1}, {1, 2}});
  OverlayGraph overlay;
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(overlay.num_removed(), 0u);
}

}  // namespace
}  // namespace mto
