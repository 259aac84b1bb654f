//! Graphviz DOT export of the generated LTS (Fig. 3 and Fig. 4 style).
//!
//! States are drawn as circles labelled `s<N>`; the initial state is drawn
//! with a double border. Transitions carry their label text; risk-transitions
//! (the dotted lines of Fig. 4) are drawn with `style=dashed` and coloured by
//! risk level.

use crate::lts::Lts;
use privacy_model::RiskLevel;
use std::fmt::Write as _;

/// Options controlling the DOT rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DotOptions {
    /// Show the full state-variable label of every state (verbose) instead
    /// of the compact `s<N>` identifier. The paper suppresses the state
    /// variables in Fig. 3 for readability, which is the default here too.
    pub show_state_variables: bool,
    /// Graph title.
    pub title: String,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions { show_state_variables: false, title: "privacy LTS".to_owned() }
    }
}

/// Renders an LTS with default options.
pub fn lts_to_dot(lts: &Lts) -> String {
    lts_to_dot_with(lts, &DotOptions::default())
}

/// Renders an LTS with explicit options.
pub fn lts_to_dot_with(lts: &Lts, options: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph lts {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  label=\"{}\";", escape(&options.title));
    for (id, state) in lts.states() {
        let shape = if id == lts.initial() { "doublecircle" } else { "circle" };
        let label = if options.show_state_variables {
            format!("{}\\n{}", id, escape(&state.short_label(lts.space())))
        } else {
            id.to_string()
        };
        let _ = writeln!(out, "  {} [label=\"{}\", shape={}];", id, label, shape);
    }
    for (_, transition) in lts.transitions() {
        let mut attrs = format!("label=\"{}\"", escape(&transition.label().to_string()));
        if transition.is_risk_transition() {
            attrs.push_str(", style=dashed");
        }
        if let Some(risk) = transition.label().risk() {
            let colour = match risk.risk_level() {
                RiskLevel::Low => "forestgreen",
                RiskLevel::Medium => "orange",
                RiskLevel::High => "red",
            };
            attrs.push_str(&format!(", color={colour}, fontcolor={colour}"));
        }
        let _ = writeln!(out, "  {} -> {} [{}];", transition.from(), transition.to(), attrs);
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{ActionKind, RiskAnnotation, TransitionLabel};
    use crate::lts::LtsBuilder;
    use crate::space::VarSpace;
    use privacy_model::{ActorId, FieldId};

    fn sample() -> Lts {
        let space = VarSpace::new([ActorId::new("Doctor")], [FieldId::new("Name")]);
        let mut builder = LtsBuilder::new(space.clone());
        let s0 = builder.initial();
        let s1 = builder.intern(builder.state(s0).clone().with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Name"),
        ));
        builder.add_transition(
            s0,
            s1,
            TransitionLabel::new(ActionKind::Collect, "Doctor", [FieldId::new("Name")], None),
        );
        let tid = builder.add_risk_transition(
            s1,
            s1,
            TransitionLabel::new(ActionKind::Read, "Doctor", [FieldId::new("Name")], None),
        );
        builder.annotate(tid, RiskAnnotation::level(RiskLevel::High));
        builder.build()
    }

    #[test]
    fn default_rendering_has_nodes_edges_and_styles() {
        let dot = lts_to_dot(&sample());
        assert!(dot.starts_with("digraph lts {"));
        assert!(dot.contains("s0 [label=\"s0\", shape=doublecircle];"));
        assert!(dot.contains("s1 [label=\"s1\", shape=circle];"));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("collect(Doctor, {Name})"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("color=red"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn verbose_rendering_includes_state_variables() {
        let options = DotOptions { show_state_variables: true, title: "Fig. 3".to_owned() };
        let dot = lts_to_dot_with(&sample(), &options);
        assert!(dot.contains("label=\"Fig. 3\""));
        assert!(dot.contains("has(Doctor,Name)"));
    }
}
