//! The stock stylesheets of the infrastructure — one per arrow of the
//! paper's Figure 1: `datapath → hds`, `datapath → dot`, `fsm → behavior`
//! (the paper's generated Java), `fsm → dot`, `rtg → controller`, and
//! `rtg → dot`.
//!
//! Each is written in the [`crate::dsl`] text syntax, exactly as a user
//! would write their own translation rules (the paper: "users define
//! their own XSL translation rules to output representations using the
//! chosen language").

use crate::ast::Stylesheet;
use crate::dsl::parse_stylesheet;
use std::sync::OnceLock;

/// Source of the `datapath.xml → .hds` stylesheet.
pub const DATAPATH_TO_HDS_SRC: &str = r##"
// datapath.xml -> .hds structural netlist (simulator input format)
template datapath {
  emit "# generated by xform: datapath '{@name}'\n"
  emit "hds {@name}\n"
  apply signals/signal
  apply cells/cell
}
template signal { emit "signal {@name} {@width}\n" }
template cell {
  emit "inst {@name} {@kind}"
  for-each param { emit " {@key}={@value}" }
  for-each conn  { emit " {@port}:{@signal}" }
  emit "\n"
}
"##;

/// Source of the `datapath.xml → .dot` stylesheet.
pub const DATAPATH_TO_DOT_SRC: &str = r##"
// datapath.xml -> Graphviz dot
template datapath {
  emit "digraph \"{@name}\" {{\n  rankdir=LR;\n"
  for-each signals/signal {
    emit "  \"s:{@name}\" [shape=ellipse,fontsize=10,label=\"{@name}[{@width}]\"];\n"
  }
  for-each cells/cell {
    emit "  \"c:{@name}\" [shape=box,style=filled,fillcolor=lightgrey,label=\"{@name}\\n{@kind}\"];\n"
  }
  apply cells/cell
  emit "}}\n"
}
template cell { apply conn }
template conn {
  if @port == "y" { emit "  \"c:{../@name}\" -> \"s:{@signal}\";\n" }
  else { if @port == "q" { emit "  \"c:{../@name}\" -> \"s:{@signal}\";\n" }
  else { if @port == "dout" { emit "  \"c:{../@name}\" -> \"s:{@signal}\";\n" }
  else { emit "  \"s:{@signal}\" -> \"c:{../@name}\" [label=\"{@port}\",fontsize=9];\n" } } }
}
"##;

/// Source of the `fsm.xml → behavioral code` stylesheet (the analogue of
/// the generated `fsm.java`; its line count is the paper's `loJava FSM`
/// metric).
pub const FSM_TO_BEHAVIOR_SRC: &str = r##"
// fsm.xml -> behavioral control-unit source (Java-flavoured)
template fsm {
  emit "// behavioral control unit '{@name}' (generated by xform)\n"
  emit "class Ctrl_{@name} {{\n"
  emit "  String state = \"{@initial}\";\n"
  emit "  boolean done = false;\n\n"
  emit "  // Moore outputs of the current state\n"
  emit "  void outputs() {{\n"
  apply states/state
  emit "  }}\n\n"
  emit "  // transition on the rising clock edge\n"
  emit "  void step() {{\n"
  for-each states/state {
    emit "    if (state.equals(\"{@name}\")) {{\n"
    for-each transition {
      if @cond {
        emit "      if (in.{@cond} == {@when}) {{ state = \"{@target}\"; return; }}\n"
      } else {
        emit "      state = \"{@target}\"; return;\n"
      }
    }
    if @terminal == "true" { emit "      done = true; return;\n" }
    emit "    }}\n"
  }
  emit "  }}\n"
  emit "}}\n"
}
template state {
  emit "    if (state.equals(\"{@name}\")) {{\n"
  emit "      out.clear();\n"
  for-each assert { emit "      out.{@output} = {@value};\n" }
  emit "    }}\n"
}
"##;

/// Source of the `fsm.xml → .dot` stylesheet.
pub const FSM_TO_DOT_SRC: &str = r##"
// fsm.xml -> Graphviz dot
template fsm {
  emit "digraph \"{@name}\" {{\n  node [shape=circle,fontsize=10];\n"
  emit "  \"\" [shape=point];\n  \"\" -> \"{@initial}\";\n"
  apply states/state
  emit "}}\n"
}
template state {
  if @terminal == "true" { emit "  \"{@name}\" [shape=doublecircle];\n" }
  for-each transition {
    if @cond {
      emit "  \"{../@name}\" -> \"{@target}\" [label=\"{@cond}={@when}\",fontsize=9];\n"
    } else {
      emit "  \"{../@name}\" -> \"{@target}\";\n"
    }
  }
}
"##;

/// Source of the `rtg.xml → controller code` stylesheet (the analogue of
/// the generated `rtg.java` that sequences temporal partitions).
pub const RTG_TO_CONTROLLER_SRC: &str = r##"
// rtg.xml -> reconfiguration controller source (Java-flavoured)
// NOTE: configurations are listed in declaration order, which equals
// execution order for the chain RTGs the partitioner emits.
template rtg {
  emit "// reconfiguration controller for '{@name}' (generated by xform)\n"
  emit "void run() {{\n"
  for-each configs/config {
    emit "  reconfigure(\"{@datapath}\");        // configuration {@id}\n"
    emit "  runUntilDone(\"{@fsm}\");\n"
  }
  emit "}}\n"
}
"##;

/// Source of the `rtg.xml → .dot` stylesheet.
pub const RTG_TO_DOT_SRC: &str = r##"
// rtg.xml -> Graphviz dot
template rtg {
  emit "digraph \"{@name}\" {{\n  node [shape=box,style=rounded];\n"
  for-each configs/config {
    emit "  \"{@id}\" [label=\"{@id}\\ndp: {@datapath}\\nfsm: {@fsm}\"];\n"
  }
  for-each edges/edge { emit "  \"{@from}\" -> \"{@to}\";\n" }
  emit "}}\n"
}
"##;

/// Source of the `datapath.xml → Verilog skeleton` stylesheet — the
/// paper's example of letting users target "the chosen language (e.g.,
/// Verilog, VHDL, SystemC)". The skeleton declares every net and
/// instantiates every cell; it is a structural rendering, not a synthesis
/// netlist (the operator library would be a companion Verilog package).
pub const DATAPATH_TO_VERILOG_SRC: &str = r##"
// datapath.xml -> structural Verilog skeleton
template datapath {
  emit "// generated by xform: datapath '{@name}'\n"
  emit "module {@name}(input wire {@clock});\n"
  apply signals/signal
  apply cells/cell
  emit "endmodule\n"
}
template signal {
  if @width == "1" { emit "  wire {@name};\n" }
  else { emit "  wire [{@width}-1:0] {@name};\n" }
}
template cell {
  emit "  {@kind}"
  for-each param { emit " #(.{@key}({@value}))" }
  emit " {@name} ("
  for-each conn { emit ".{@port}({@signal}), " }
  emit ");\n"
}
"##;

/// Parses a stock stylesheet once per process; later calls share it.
fn stock(cell: &'static OnceLock<Stylesheet>, source: &str, what: &str) -> &'static Stylesheet {
    cell.get_or_init(|| {
        parse_stylesheet(source)
            .unwrap_or_else(|e| panic!("stock stylesheet '{what}' is broken: {e}"))
    })
}

/// The `datapath.xml → .hds` stylesheet.
pub fn datapath_to_hds() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, DATAPATH_TO_HDS_SRC, "datapath_to_hds")
}

/// The `datapath.xml → .dot` stylesheet.
pub fn datapath_to_dot() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, DATAPATH_TO_DOT_SRC, "datapath_to_dot")
}

/// The `fsm.xml → behavioral source` stylesheet.
pub fn fsm_to_behavior() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, FSM_TO_BEHAVIOR_SRC, "fsm_to_behavior")
}

/// The `fsm.xml → .dot` stylesheet.
pub fn fsm_to_dot() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, FSM_TO_DOT_SRC, "fsm_to_dot")
}

/// The `rtg.xml → controller source` stylesheet.
pub fn rtg_to_controller() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, RTG_TO_CONTROLLER_SRC, "rtg_to_controller")
}

/// The `rtg.xml → .dot` stylesheet.
pub fn rtg_to_dot() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, RTG_TO_DOT_SRC, "rtg_to_dot")
}

/// The `datapath.xml → Verilog skeleton` stylesheet.
pub fn datapath_to_verilog() -> &'static Stylesheet {
    static SHEET: OnceLock<Stylesheet> = OnceLock::new();
    stock(&SHEET, DATAPATH_TO_VERILOG_SRC, "datapath_to_verilog")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::apply;
    use xmlite::Document;

    const DATAPATH_XML: &str = r##"
        <datapath name="demo" width="16" clock="clk">
          <signals>
            <signal name="clk" width="1"/>
            <signal name="a_q" width="16"/>
            <signal name="fu0_y" width="16"/>
          </signals>
          <cells>
            <cell name="clock0" kind="clock">
              <param key="period" value="10"/>
              <conn port="y" signal="clk"/>
            </cell>
            <cell name="fu0" kind="add">
              <param key="width" value="16"/>
              <conn port="a" signal="a_q"/>
              <conn port="b" signal="a_q"/>
              <conn port="y" signal="fu0_y"/>
            </cell>
          </cells>
          <interface>
            <control signal="a_en" width="1"/>
          </interface>
        </datapath>
    "##;

    const FSM_XML: &str = r##"
        <fsm name="demo_ctrl" initial="s0">
          <inputs><input signal="t3_q"/></inputs>
          <outputs><output signal="t0_en" width="1"/><output signal="done" width="1"/></outputs>
          <states>
            <state name="s0" terminal="false">
              <assert output="t0_en" value="1"/>
              <transition cond="t3_q" when="true" target="s1"/>
              <transition target="s0"/>
            </state>
            <state name="s1" terminal="false">
              <transition target="done"/>
            </state>
            <state name="done" terminal="true">
              <assert output="done" value="1"/>
            </state>
          </states>
        </fsm>
    "##;

    const RTG_XML: &str = r##"
        <rtg name="fdct2">
          <configs>
            <config id="c0" datapath="dp0" fsm="fsm0"/>
            <config id="c1" datapath="dp1" fsm="fsm1"/>
          </configs>
          <edges><edge from="c0" to="c1"/></edges>
        </rtg>
    "##;

    fn run(sheet: &Stylesheet, xml: &str) -> String {
        let doc = Document::parse(xml).unwrap();
        apply(sheet, doc.root()).unwrap()
    }

    #[test]
    fn hds_output_is_wellformed() {
        let out = run(datapath_to_hds(), DATAPATH_XML);
        assert!(out.contains("hds demo"));
        assert!(out.contains("signal clk 1"));
        assert!(out.contains("inst clock0 clock period=10 y:clk"));
        assert!(out.contains("inst fu0 add width=16 a:a_q b:a_q y:fu0_y"));
    }

    #[test]
    fn datapath_dot_has_nodes_and_directed_edges() {
        let out = run(datapath_to_dot(), DATAPATH_XML);
        assert!(out.starts_with("digraph \"demo\""));
        assert!(out.contains("\"s:clk\""));
        assert!(out.contains("\"c:fu0\""));
        // Output port: cell -> signal; input port: signal -> cell.
        assert!(out.contains("\"c:fu0\" -> \"s:fu0_y\""));
        assert!(out.contains("\"s:a_q\" -> \"c:fu0\""));
        assert!(out.trim_end().ends_with('}'));
    }

    #[test]
    fn fsm_behavior_code_shape() {
        let out = run(fsm_to_behavior(), FSM_XML);
        assert!(out.contains("class Ctrl_demo_ctrl {"));
        assert!(out.contains("String state = \"s0\";"));
        assert!(out.contains("out.t0_en = 1;"));
        assert!(out.contains("if (in.t3_q == true) { state = \"s1\"; return; }"));
        assert!(out.contains("done = true; return;"));
        // loBehav metric is meaningful.
        assert!(out.lines().filter(|l| !l.trim().is_empty()).count() > 15);
    }

    #[test]
    fn fsm_dot_marks_initial_and_terminal() {
        let out = run(fsm_to_dot(), FSM_XML);
        assert!(out.contains("\"\" -> \"s0\""));
        assert!(out.contains("\"done\" [shape=doublecircle]"));
        assert!(out.contains("\"s0\" -> \"s1\" [label=\"t3_q=true\""));
        assert!(out.contains("\"s1\" -> \"done\""));
    }

    #[test]
    fn rtg_controller_sequences_configs() {
        let out = run(rtg_to_controller(), RTG_XML);
        let c0 = out.find("reconfigure(\"dp0\")").unwrap();
        let c1 = out.find("reconfigure(\"dp1\")").unwrap();
        assert!(c0 < c1, "configurations in order:\n{out}");
        assert!(out.contains("runUntilDone(\"fsm0\")"));
    }

    #[test]
    fn rtg_dot_draws_edges() {
        let out = run(rtg_to_dot(), RTG_XML);
        assert!(out.contains("\"c0\" -> \"c1\""));
        assert!(out.contains("dp: dp0"));
    }

    #[test]
    fn verilog_skeleton_declares_and_instantiates() {
        let out = run(datapath_to_verilog(), DATAPATH_XML);
        assert!(out.contains("module demo(input wire clk);"));
        assert!(out.contains("  wire clk;"));
        assert!(out.contains("  wire [16-1:0] a_q;"));
        assert!(out.contains("add #(.width(16)) fu0 (.a(a_q), .b(a_q), .y(fu0_y), );"));
        assert!(out.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn all_stock_sheets_parse() {
        // Constructors panic on broken sources; touch them all.
        let _ = (
            datapath_to_hds(),
            datapath_to_dot(),
            datapath_to_verilog(),
            fsm_to_behavior(),
            fsm_to_dot(),
            rtg_to_controller(),
            rtg_to_dot(),
        );
    }

    #[test]
    fn stock_sheets_are_parsed_once_per_process() {
        assert!(std::ptr::eq(datapath_to_hds(), datapath_to_hds()));
        assert!(std::ptr::eq(fsm_to_behavior(), fsm_to_behavior()));
        assert!(!std::ptr::eq(datapath_to_hds(), datapath_to_dot()));
    }
}
