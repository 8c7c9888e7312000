#pragma once

/// @file
/// Operator reconstruction (§4.3).
///
/// ATen operators are rebuilt from their recorded schema: schema string →
/// parsed FunctionSchema → generated TorchScript-style IR text (non-tensor
/// argument *values* baked in as prim::Constant nodes) → parse_ir →
/// CompilationUnit::create_function → callable.  Communication and custom
/// operators dispatch directly through the framework registry with their
/// recorded arguments (process groups are remapped by the replayer).
/// All reconstruction happens during replay initialization so the hot loop
/// only invokes prebuilt callables (§4.3.4).

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/tensor_manager.h"
#include "et/node.h"
#include "jit/ir.h"

namespace mystique::core {

/// One reconstructed replay target.
struct ReconstructedOp {
    enum class Kind {
        kCompiledIr, ///< ATen: execute through the compiled IR function
        kDirect,     ///< comm/custom: direct registry dispatch
        kSkipped,    ///< unsupported (fused / unregistered custom)
    };

    Kind kind = Kind::kSkipped;
    const et::Node* node = nullptr;
    const jit::Function* fn = nullptr; ///< valid for kCompiledIr
    /// Interned op identity, resolved once at plan-build time so the hot
    /// replay loop dispatches kDirect ops without any name lookup.
    OpId op_id = kInvalidOpId;
    /// Stream the op's kernels ran on originally (from the profiler trace).
    std::optional<int> stream;
    /// Generated IR text (kept for serialization and debugging): a view of
    /// the copy the Reconstructor that compiled `fn` owns, so ops sharing
    /// an IR share one text, and it lives exactly as long as `fn`.
    std::string_view ir_text;
    /// Index into the plan's fused_groups(), or -1 when the op executes
    /// standalone.  Set by the plan optimizer; members keep their kind (and
    /// thus their coverage accounting) — only execution is redirected.
    int fused_group = -1;
    /// True for the first member of its group: the hot loop executes the
    /// whole group there and skips the remaining members.
    bool fused_head = false;
};

/// Builds callables for selected nodes; owns the compilation unit.
class Reconstructor {
  public:
    Reconstructor() = default;

    /// Reconstructs one node (@p supported from the selection pass).
    ReconstructedOp reconstruct(const et::Node& node, bool supported);

    /// The reconstruction kind this process produces for (@p node,
    /// @p supported) — the single decision shared by reconstruct() and the
    /// plan-restore path (ReplayPlan::from_json), which uses it to detect
    /// registry drift against a document's recorded kinds.
    static ReconstructedOp::Kind decide_kind(const et::Node& node, bool supported)
    {
        if (!supported)
            return ReconstructedOp::Kind::kSkipped;
        if (node.category == dev::OpCategory::kComm ||
            node.category == dev::OpCategory::kCustom)
            return ReconstructedOp::Kind::kDirect;
        return ReconstructedOp::Kind::kCompiledIr;
    }

    /// A compiled function and the text it was compiled from (both owned
    /// by the Reconstructor).
    struct Compiled {
        const jit::Function* fn = nullptr;
        std::string_view text;
    };

    /// The compiled function for @p ir_text, parsing and compiling it on
    /// first sight only: ops with identical IR share one function (its
    /// execution state lives in the per-rank session, never in the
    /// function) and one copy of the text.  Both reconstruct() and the
    /// plan-restore path (ReplayPlan::from_json) compile through here.
    /// Malformed text throws ParseError.
    /// @param node  its op name prefixes the function's name
    ///        ("<op>_ir<hash of ir_text>") when it is compiled here
    Compiled compile(std::string_view ir_text, const et::Node& node);

    /// Sizes the text table and compilation unit for @p distinct_texts
    /// compiles, sparing their regrowth when the count is known up front
    /// (a restore reads it from the document's IR table).
    void reserve(std::size_t distinct_texts);

    const jit::CompilationUnit& compilation_unit() const { return cu_; }

  private:
    /// A text and its hash, computed once per compile() call: the table
    /// lookup, the insertion and the function's name all reuse it.  Keys
    /// own their text; probes view the caller's.
    struct TextKey {
        std::string text;
        std::size_t hash = 0;
    };
    struct TextProbe {
        std::string_view text;
        std::size_t hash = 0;
    };
    struct TextHash {
        using is_transparent = void;
        std::size_t operator()(const TextKey& k) const { return k.hash; }
        std::size_t operator()(const TextProbe& p) const { return p.hash; }
    };
    struct TextEq {
        using is_transparent = void;
        template <typename A, typename B>
        bool operator()(const A& a, const B& b) const
        {
            return std::string_view(a.text) == std::string_view(b.text);
        }
    };

    jit::CompilationUnit cu_;
    std::unordered_map<TextKey, const jit::Function*, TextHash, TextEq> by_text_;
};

/// Executes a reconstructed op: resolves tensor arguments from their
/// @p slots in the tensor manager, invokes the callable, and binds outputs
/// back to their slots.  Returns false when the op was skipped.
bool execute_reconstructed(fw::Session& session, const ReconstructedOp& op,
                           const OpTensorSlots& slots, TensorManager& tm);

} // namespace mystique::core
