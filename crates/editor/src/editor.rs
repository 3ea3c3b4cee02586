//! The editor state machine.
//!
//! Each [`Event`] drives the mode machine below; every mutation goes
//! through the same methods a programmatic caller would use, and every
//! machine-level question is delegated to the checker — the editor itself
//! knows no architecture facts (paper §4's division of labour).

use crate::events::{Button, Event, PaletteEntry};
use crate::geometry::{self, region_at, Region, DRAW_Y0};
use nsc_arch::FuOp;
use nsc_checker::{Checker, Severity, Stage};
use nsc_diagram::{
    ConnId, DmaAttrs, Document, FuAssign, IconId, IconKind, PadLoc, PadRef, PipelineId, Point,
};

/// What the editor is in the middle of.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Nothing in progress.
    Idle,
    /// Dragging a new icon's outline out of the palette (Figure 6).
    DraggingNew {
        /// The palette entry being placed.
        entry: PaletteEntry,
        /// Current outline position.
        at: Point,
    },
    /// Dragging an existing icon.
    DraggingIcon {
        /// The icon being moved.
        icon: IconId,
        /// Cursor offset within the icon when grabbed.
        grab: Point,
    },
    /// Rubber-banding a wire from a source pad (Figure 8).
    RubberBand {
        /// Anchor pad.
        from: PadLoc,
        /// Current free end.
        to: Point,
    },
    /// The Figure 8 pop-up menu of legal connection targets.
    ConnMenu {
        /// Anchor pad.
        from: PadLoc,
        /// Legal destinations, as reported by the checker.
        targets: Vec<PadLoc>,
    },
    /// The Figure 10 pop-up menu of legal operations for one unit.
    OpMenu {
        /// ALS icon.
        icon: IconId,
        /// Unit position within it.
        pos: u8,
        /// Menu contents (capability-filtered).
        ops: Vec<FuOp>,
    },
    /// The Figure 9 DMA sub-window for a memory/cache connection.
    DmaForm {
        /// The connection being parameterized.
        conn: ConnId,
        /// Field values: number, variable, offset, stride, count.
        fields: [String; 5],
        /// Which field has keyboard focus.
        active: usize,
    },
}

/// Interaction-effort accounting (experiment T3: visual environment vs
/// hand-written microcode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffortMeter {
    /// Mouse presses and releases.
    pub mouse_actions: u32,
    /// Pop-up menu selections.
    pub menu_picks: u32,
    /// Characters typed into sub-window fields.
    pub text_chars: u32,
    /// Control-panel button presses.
    pub button_presses: u32,
}

impl EffortMeter {
    /// Total elementary user actions.
    pub fn total_actions(&self) -> u32 {
        self.mouse_actions + self.menu_picks + self.text_chars + self.button_presses
    }
}

/// What a point in the drawing area hits.
#[derive(Debug, Clone, PartialEq)]
enum Hit {
    Pad(PadLoc),
    Unit(IconId, u8),
    Icon(IconId),
    Empty,
}

/// The editor.
#[derive(Debug, Clone)]
pub struct Editor {
    checker: Checker,
    /// The document being edited.
    pub doc: Document,
    /// The pipeline currently displayed.
    pub current: PipelineId,
    /// Interaction mode.
    pub mode: Mode,
    /// Message-strip contents.
    pub message: String,
    /// Interaction effort so far.
    pub effort: EffortMeter,
    undo: Vec<Document>,
    redo: Vec<Document>,
}

impl Editor {
    /// A fresh editor with one empty pipeline.
    pub fn new(checker: Checker, name: impl Into<String>) -> Self {
        let mut doc = Document::new(name);
        let current = doc.add_pipeline("pipeline 1");
        Editor {
            checker,
            doc,
            current,
            mode: Mode::Idle,
            message: "ready".to_string(),
            effort: EffortMeter::default(),
            undo: Vec::new(),
            redo: Vec::new(),
        }
    }

    /// An editor over an existing document (e.g. for re-editing a saved
    /// program).
    pub fn open(checker: Checker, doc: Document) -> Self {
        let current = doc.pipelines().first().map(|p| p.id).unwrap_or(PipelineId(0));
        Editor {
            checker,
            doc,
            current,
            mode: Mode::Idle,
            message: "opened".to_string(),
            effort: EffortMeter::default(),
            undo: Vec::new(),
            redo: Vec::new(),
        }
    }

    /// The checker in use.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    fn snapshot(&mut self) {
        self.undo.push(self.doc.clone());
        if self.undo.len() > 64 {
            self.undo.remove(0);
        }
        self.redo.clear();
    }

    /// Undo the last edit.
    pub fn undo(&mut self) -> bool {
        match self.undo.pop() {
            Some(prev) => {
                self.redo.push(std::mem::replace(&mut self.doc, prev));
                self.ensure_current();
                self.message = "undone".into();
                true
            }
            None => {
                self.message = "nothing to undo".into();
                false
            }
        }
    }

    /// Redo the last undone edit.
    pub fn redo(&mut self) -> bool {
        match self.redo.pop() {
            Some(next) => {
                self.undo.push(std::mem::replace(&mut self.doc, next));
                self.ensure_current();
                self.message = "redone".into();
                true
            }
            None => {
                self.message = "nothing to redo".into();
                false
            }
        }
    }

    fn ensure_current(&mut self) {
        if self.doc.pipeline(self.current).is_none() {
            self.current = self
                .doc
                .pipelines()
                .first()
                .map(|p| p.id)
                .unwrap_or_else(|| self.doc.add_pipeline("pipeline 1"));
        }
    }

    // ------------------------------------------------------------------
    // programmatic command API (also used by the event handlers)
    // ------------------------------------------------------------------

    /// Place a new icon at a drawing-area position.
    pub fn place_icon(&mut self, kind: IconKind, at: Point) -> IconId {
        self.snapshot();
        let pid = self.current;
        let p = self.doc.pipeline_mut(pid).expect("current pipeline");
        let id = p.add_icon(kind);
        self.doc.layout_mut(pid).expect("layout").place(id, at);
        self.after_edit(&format!("placed {} at {at}", kind.palette_label()));
        id
    }

    /// Move an icon.
    pub fn move_icon(&mut self, icon: IconId, to: Point) {
        self.snapshot();
        let pid = self.current;
        self.doc.layout_mut(pid).expect("layout").place(icon, to);
        self.after_edit(&format!("moved {icon}"));
    }

    /// Wire two pads, consulting the checker first; a refused wire leaves
    /// the document untouched and the reason in the message strip.
    pub fn connect(&mut self, from: PadLoc, to: PadLoc) -> Option<ConnId> {
        let pid = self.current;
        let diagram = self.doc.pipeline(pid).expect("current pipeline");
        let diags = self.checker.validate_connection(diagram, from, to);
        if let Some(err) = diags.first() {
            self.message = format!("refused: {err}");
            return None;
        }
        self.snapshot();
        let conn = self
            .doc
            .pipeline_mut(pid)
            .expect("pipeline")
            .connect(from, to, None)
            .expect("validated connection");
        self.after_edit(&format!("connected {from} -> {to}"));
        Some(conn)
    }

    /// Legal destinations for a wire from `from` (the Figure 8 menu).
    pub fn legal_targets(&self, from: PadLoc) -> Vec<PadLoc> {
        let diagram = self.doc.pipeline(self.current).expect("pipeline");
        self.checker.legal_targets(diagram, from)
    }

    /// Program a functional unit (the Figure 10 action).
    pub fn assign_fu(&mut self, icon: IconId, pos: u8, assign: FuAssign) -> bool {
        // Capability check through the checker's knowledge base.
        let diagram = self.doc.pipeline(self.current).expect("pipeline");
        let Some(ic) = diagram.icon(icon) else {
            self.message = format!("no icon {icon}");
            return false;
        };
        if let IconKind::Als { kind, .. } = ic.kind {
            let caps = kind.unit_caps(pos as usize);
            if !caps.supports(assign.op) {
                self.message = format!(
                    "refused: {} needs {:?} circuitry (unit has {caps})",
                    assign.op.mnemonic(),
                    assign.op.class()
                );
                return false;
            }
        }
        self.snapshot();
        match self.doc.pipeline_mut(self.current).expect("pipeline").assign_fu(icon, pos, assign) {
            Ok(()) => {
                self.after_edit(&format!("programmed {icon}.u{pos}: {}", assign.op.mnemonic()));
                true
            }
            Err(e) => {
                self.undo.pop();
                self.message = format!("refused: {e}");
                false
            }
        }
    }

    /// Set shift/delay tap delays.
    pub fn set_sdu_taps(&mut self, icon: IconId, delays: Vec<u16>) -> bool {
        self.snapshot();
        match self.doc.pipeline_mut(self.current).expect("pipeline").set_sdu_taps(icon, delays) {
            Ok(()) => {
                self.after_edit(&format!("programmed taps of {icon}"));
                true
            }
            Err(e) => {
                self.undo.pop();
                self.message = format!("refused: {e}");
                false
            }
        }
    }

    /// Attach DMA attributes to a connection (the Figure 9 sub-window's
    /// effect).
    pub fn set_dma(&mut self, conn: ConnId, attrs: DmaAttrs) -> bool {
        self.snapshot();
        match self.doc.pipeline_mut(self.current).expect("pipeline").connection_mut(conn) {
            Some(c) => {
                c.dma = Some(attrs);
                self.after_edit(&format!("DMA parameters set on {conn}"));
                true
            }
            None => {
                self.undo.pop();
                self.message = format!("no connection {conn}");
                false
            }
        }
    }

    /// Set the stream length of the current pipeline.
    pub fn set_stream_len(&mut self, len: u64) {
        self.snapshot();
        self.doc.pipeline_mut(self.current).expect("pipeline").stream_len = len;
        self.after_edit(&format!("stream length {len}"));
    }

    /// Run the incremental check and surface the verdict (CHECK button).
    pub fn check_now(&mut self) -> Vec<nsc_checker::Diagnostic> {
        let diagram = self.doc.pipeline(self.current).expect("pipeline");
        let diags = self.checker.check_pipeline(diagram, Stage::Incremental);
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = diags.len() - errors;
        self.message = match diags.first() {
            None => "check: clean".to_string(),
            Some(first) => format!("check: {errors} error(s), {warnings} warning(s) — {first}"),
        };
        diags
    }

    /// Serialize the document (SAVE button): full JSON plus the semantic
    /// pseudo-code view's JSON.
    pub fn save(&self) -> (String, String) {
        (self.doc.to_json(), self.doc.semantic_json())
    }

    fn after_edit(&mut self, what: &str) {
        // "Any errors are flagged as soon as they are detected."
        let diagram = self.doc.pipeline(self.current).expect("pipeline");
        let diags = self.checker.check_pipeline(diagram, Stage::Incremental);
        let first_err = diags.iter().find(|d| d.severity == Severity::Error);
        self.message = match first_err {
            Some(e) => format!("{what}; {e}"),
            None => what.to_string(),
        };
    }

    // ------------------------------------------------------------------
    // hit testing
    // ------------------------------------------------------------------

    fn hit(&self, x: i32, y: i32) -> Hit {
        let pid = self.current;
        let Some(diagram) = self.doc.pipeline(pid) else { return Hit::Empty };
        let Some(layout) = self.doc.layout(pid) else { return Hit::Empty };
        for icon in diagram.icons() {
            let Some(pos) = layout.position(icon.id) else { continue };
            let m = geometry::metrics(&icon.kind);
            // Pads first (exact cells).
            for (pad, off) in geometry::pads_with_offsets(&icon.kind) {
                if pos.x + off.x == x && pos.y + off.y == y {
                    return Hit::Pad(PadLoc::new(icon.id, pad));
                }
            }
            // Then unit boxes and icon bodies.
            if x >= pos.x && x < pos.x + m.w && y >= pos.y && y < pos.y + m.h {
                if let IconKind::Als { kind, mode, .. } = icon.kind {
                    for p in geometry::active_positions(kind, mode) {
                        if let Some(off) =
                            geometry::pad_offset(&icon.kind, PadRef::FuOut { pos: p })
                        {
                            let row0 = pos.y + off.y - 1;
                            if y >= row0 && y < row0 + 3 {
                                return Hit::Unit(icon.id, p);
                            }
                        }
                    }
                }
                return Hit::Icon(icon.id);
            }
        }
        Hit::Empty
    }

    // ------------------------------------------------------------------
    // the event loop
    // ------------------------------------------------------------------

    /// Feed one input event through the mode machine.
    pub fn handle(&mut self, ev: Event) {
        match ev {
            Event::MouseDown { x, y } => {
                self.effort.mouse_actions += 1;
                self.mouse_down(x, y);
            }
            Event::MouseMove { x, y } => self.mouse_move(x, y),
            Event::MouseUp { x, y } => {
                self.effort.mouse_actions += 1;
                self.mouse_up(x, y);
            }
            Event::MenuPick(i) => {
                self.effort.menu_picks += 1;
                self.menu_pick(i);
            }
            Event::MenuCancel => {
                self.mode = Mode::Idle;
                self.message = "cancelled".into();
            }
            Event::Text(s) => {
                if let Mode::DmaForm { fields, active, .. } = &mut self.mode {
                    self.effort.text_chars += s.chars().count() as u32;
                    fields[*active].push_str(&s);
                }
            }
            Event::NextField => {
                if let Mode::DmaForm { active, .. } = &mut self.mode {
                    *active = (*active + 1) % 5;
                }
            }
            Event::SubmitForm => self.submit_form(),
        }
    }

    fn mouse_down(&mut self, x: i32, y: i32) {
        match region_at(x, y) {
            Region::ControlPanel => {
                let row = (y - DRAW_Y0 - 1) / 2;
                let n_palette = PaletteEntry::ALL.len() as i32;
                if (0..n_palette).contains(&row) {
                    let entry = PaletteEntry::ALL[row as usize];
                    self.mode = Mode::DraggingNew { entry, at: Point::new(x, y) };
                    self.message = format!("drag {} into the drawing area", entry.label());
                } else if ((n_palette)..(n_palette + Button::ALL.len() as i32)).contains(&row) {
                    self.effort.button_presses += 1;
                    self.press(Button::ALL[(row - n_palette) as usize]);
                }
            }
            Region::Drawing => match self.hit(x, y) {
                Hit::Pad(pad) if pad.pad.can_source() => {
                    // Paper Figure 8: mousing on a pad pops the menu of
                    // available (legal) choices; dragging rubber-bands.
                    let targets = self.legal_targets(pad);
                    self.message = format!("{} legal target(s) for {pad}", targets.len());
                    self.mode = Mode::RubberBand { from: pad, to: Point::new(x, y) };
                    let _ = targets;
                }
                Hit::Pad(pad) => {
                    self.message = format!("{pad} accepts incoming wires only");
                }
                Hit::Unit(icon, pos) => {
                    // Figure 10: the operation menu, capability-filtered.
                    let diagram = self.doc.pipeline(self.current).expect("pipeline");
                    let ops = match diagram.icon(icon).map(|i| i.kind) {
                        Some(IconKind::Als { kind, .. }) => {
                            kind.unit_caps(pos as usize).legal_ops()
                        }
                        _ => Vec::new(),
                    };
                    self.message = format!("select operation for {icon}.u{pos}");
                    self.mode = Mode::OpMenu { icon, pos, ops };
                }
                Hit::Icon(icon) => {
                    let layout = self.doc.layout(self.current).expect("layout");
                    let pos = layout.position(icon).unwrap_or_default();
                    self.mode = Mode::DraggingIcon { icon, grab: Point::new(x - pos.x, y - pos.y) };
                }
                Hit::Empty => {}
            },
            _ => {}
        }
    }

    fn mouse_move(&mut self, x: i32, y: i32) {
        match &mut self.mode {
            Mode::DraggingNew { at, .. } => *at = Point::new(x, y),
            Mode::RubberBand { to, .. } => *to = Point::new(x, y),
            Mode::DraggingIcon { icon, grab } => {
                let (icon, grab) = (*icon, *grab);
                let pid = self.current;
                self.doc
                    .layout_mut(pid)
                    .expect("layout")
                    .place(icon, Point::new(x - grab.x, y - grab.y));
            }
            _ => {}
        }
    }

    fn mouse_up(&mut self, x: i32, y: i32) {
        match std::mem::replace(&mut self.mode, Mode::Idle) {
            Mode::DraggingNew { entry, .. } => {
                if region_at(x, y) == Region::Drawing {
                    self.place_icon(entry.kind(), Point::new(x, y));
                } else {
                    self.message = "drop cancelled (outside drawing area)".into();
                }
            }
            Mode::DraggingIcon { icon, .. } => {
                self.message = format!("moved {icon}");
            }
            Mode::RubberBand { from, .. } => {
                match self.hit(x, y) {
                    Hit::Pad(to) if to != from => {
                        if let Some(conn) = self.connect(from, to) {
                            self.maybe_open_dma_form(conn);
                        }
                    }
                    _ => {
                        // Released on empty space: offer the menu instead
                        // (the paper's primary flow).
                        let targets = self.legal_targets(from);
                        if targets.is_empty() {
                            self.message = format!("no legal destinations for {from}");
                        } else {
                            self.mode = Mode::ConnMenu { from, targets };
                        }
                    }
                }
            }
            other => self.mode = other,
        }
    }

    fn menu_pick(&mut self, i: usize) {
        match std::mem::replace(&mut self.mode, Mode::Idle) {
            Mode::ConnMenu { from, targets } => {
                if let Some(&to) = targets.get(i) {
                    if let Some(conn) = self.connect(from, to) {
                        self.maybe_open_dma_form(conn);
                    }
                } else {
                    self.message = "no such menu entry".into();
                }
            }
            Mode::OpMenu { icon, pos, ops } => {
                if let Some(&op) = ops.get(i) {
                    let assign =
                        if op.arity() == 1 { FuAssign::unary(op) } else { FuAssign::binary(op) };
                    self.assign_fu(icon, pos, assign);
                } else {
                    self.message = "no such menu entry".into();
                }
            }
            other => self.mode = other,
        }
    }

    /// After wiring to/from storage, pop the Figure 9 sub-window.
    fn maybe_open_dma_form(&mut self, conn: ConnId) {
        let diagram = self.doc.pipeline(self.current).expect("pipeline");
        let Some(c) = diagram.connection(conn) else { return };
        let touches_storage = [c.from.icon, c.to.icon].iter().any(|&i| {
            matches!(
                diagram.icon(i).map(|ic| ic.kind),
                Some(IconKind::Memory { .. }) | Some(IconKind::Cache { .. })
            )
        });
        if touches_storage {
            self.mode = Mode::DmaForm { conn, fields: Default::default(), active: 0 };
            self.message = "DMA sub-window: plane/cache, variable, offset, stride, count".into();
        }
    }

    fn submit_form(&mut self) {
        if let Mode::DmaForm { conn, fields, .. } = std::mem::replace(&mut self.mode, Mode::Idle) {
            // Fields: number, variable, offset, stride, count.
            let number: Option<u8> = fields[0].trim().parse().ok();
            let variable = (!fields[1].trim().is_empty()).then(|| fields[1].trim().to_string());
            let offset: u64 = fields[2].trim().parse().unwrap_or(0);
            let stride: i64 = fields[3].trim().parse().unwrap_or(1);
            let count: Option<u64> = fields[4].trim().parse().ok();
            let mut attrs = DmaAttrs {
                variable,
                offset,
                stride,
                count,
                mode: nsc_diagram::CaptureMode::Stream,
            };
            if attrs.stride == 0 {
                attrs.stride = 1;
            }
            // Bind the storage icon if a number was given.
            if let Some(nr) = number {
                let pid = self.current;
                let diagram = self.doc.pipeline_mut(pid).expect("pipeline");
                let endpoints = diagram
                    .connection(conn)
                    .map(|c| [c.from.icon, c.to.icon])
                    .unwrap_or([IconId(u32::MAX); 2]);
                for id in endpoints {
                    if let Some(icon) = diagram.icon_mut(id) {
                        match &mut icon.kind {
                            IconKind::Memory { plane } if plane.is_none() => {
                                *plane = Some(nsc_arch::PlaneId(nr));
                            }
                            IconKind::Cache { cache } if cache.is_none() => {
                                *cache = Some(nsc_arch::CacheId(nr));
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.set_dma(conn, attrs);
        }
    }

    fn press(&mut self, b: Button) {
        match b {
            Button::InsertPipe => {
                self.snapshot();
                let at = self.doc.ordinal_of(self.current).map(|o| o + 1).unwrap_or(0);
                let n = self.doc.pipeline_count() + 1;
                self.current = self.doc.insert_pipeline(at, format!("pipeline {n}"));
                self.message = format!("inserted pipeline at {at}");
            }
            Button::DeletePipe => {
                self.snapshot();
                self.doc.delete_pipeline(self.current);
                self.ensure_current();
                self.message = "deleted pipeline".into();
            }
            Button::CopyPipe => {
                self.snapshot();
                if let Some(id) = self.doc.copy_pipeline(self.current) {
                    self.current = id;
                    self.message = "copied pipeline".into();
                }
            }
            Button::Renumber => {
                self.snapshot();
                if let Some(ord) = self.doc.ordinal_of(self.current) {
                    if ord > 0 && self.doc.renumber(ord, ord - 1) {
                        self.message = format!("pipeline moved to slot {}", ord - 1);
                    } else {
                        self.message = "already first".into();
                    }
                }
            }
            Button::Next | Button::Prev => {
                let ord = self.doc.ordinal_of(self.current).unwrap_or(0);
                let n = self.doc.pipeline_count();
                let next = if b == Button::Next {
                    (ord + 1).min(n.saturating_sub(1))
                } else {
                    ord.saturating_sub(1)
                };
                if let Some(p) = self.doc.by_ordinal(next) {
                    self.current = p.id;
                    self.message = format!("viewing pipeline {next}: {}", p.name);
                }
            }
            Button::Check => {
                self.check_now();
            }
            Button::Save => {
                let (_full, _semantic) = self.save();
                self.message = "saved (JSON + semantic data structures)".into();
            }
            Button::Undo => {
                self.undo();
            }
            Button::Redo => {
                self.redo();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{MSG_H, WIN_W};
    use nsc_arch::{AlsKind, InPort, PlaneId};

    fn editor() -> Editor {
        Editor::new(Checker::nsc_1988(), "test")
    }

    fn place(ed: &mut Editor, kind: IconKind, at: Point) -> IconId {
        ed.place_icon(kind, at)
    }

    #[test]
    fn palette_drag_places_an_icon() {
        let mut ed = editor();
        // Palette row 3 = TRIPLET; rows start at DRAW_Y0+1, two cells each.
        let py = MSG_H + 1 + 2 * 3;
        ed.handle(Event::MouseDown { x: WIN_W - 8, y: py });
        assert!(matches!(ed.mode, Mode::DraggingNew { entry: PaletteEntry::Triplet, .. }));
        ed.handle(Event::MouseMove { x: 40, y: 10 });
        ed.handle(Event::MouseUp { x: 40, y: 10 });
        assert_eq!(ed.mode, Mode::Idle);
        let d = ed.doc.pipeline(ed.current).unwrap();
        assert_eq!(d.icon_count(), 1);
        let icon = d.icons().next().unwrap();
        assert!(matches!(icon.kind, IconKind::Als { kind: AlsKind::Triplet, .. }));
        assert_eq!(ed.doc.layout(ed.current).unwrap().position(icon.id), Some(Point::new(40, 10)));
        assert_eq!(ed.effort.mouse_actions, 2);
    }

    #[test]
    fn moving_an_icon_changes_only_the_layout_and_undoes() {
        let mut ed = editor();
        let icon = place(&mut ed, IconKind::memory(), Point::new(10, 10));
        let (digest, shape) = (ed.doc.digest(), ed.doc.shape_digest());
        ed.move_icon(icon, Point::new(30, 12));
        let position = |ed: &Editor| ed.doc.layout(ed.current).unwrap().position(icon);
        assert_eq!(position(&ed), Some(Point::new(30, 12)));
        assert_eq!(ed.doc.digest(), digest, "layout is not part of the digest");
        assert_eq!(ed.doc.shape_digest(), shape);
        assert!(ed.undo());
        assert_eq!(position(&ed), Some(Point::new(10, 10)));
    }

    #[test]
    fn dropping_outside_the_drawing_area_cancels() {
        let mut ed = editor();
        let py = MSG_H + 1;
        ed.handle(Event::MouseDown { x: WIN_W - 8, y: py });
        ed.handle(Event::MouseUp { x: 2, y: 10 }); // left region
        assert_eq!(ed.doc.pipeline(ed.current).unwrap().icon_count(), 0);
        assert!(ed.message.contains("cancelled"));
    }

    #[test]
    fn rubber_band_connects_pads() {
        let mut ed = editor();
        let mem = place(&mut ed, IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 6));
        let als = place(&mut ed, IconKind::als(AlsKind::Singlet), Point::new(45, 6));
        // Memory Io pad at (22, 7); singlet inA pad at (45, 6).
        ed.handle(Event::MouseDown { x: 22, y: 7 });
        assert!(matches!(ed.mode, Mode::RubberBand { .. }));
        ed.handle(Event::MouseMove { x: 30, y: 6 });
        ed.handle(Event::MouseUp { x: 45, y: 6 });
        // Wire exists; the DMA sub-window popped (storage endpoint).
        let d = ed.doc.pipeline(ed.current).unwrap();
        assert_eq!(d.connection_count(), 1);
        let c = d.connections().next().unwrap();
        assert_eq!(c.from, PadLoc::new(mem, PadRef::Io));
        assert_eq!(c.to, PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }));
        assert!(matches!(ed.mode, Mode::DmaForm { .. }));
    }

    #[test]
    fn dma_form_fills_attributes_and_binds_the_plane() {
        let mut ed = editor();
        let mem = place(&mut ed, IconKind::memory(), Point::new(22, 6));
        let _als = place(&mut ed, IconKind::als(AlsKind::Singlet), Point::new(45, 6));
        ed.handle(Event::MouseDown { x: 22, y: 7 });
        ed.handle(Event::MouseUp { x: 45, y: 6 });
        assert!(matches!(ed.mode, Mode::DmaForm { .. }));
        // Figure 9: plane 3, offset 10000, stride 1.
        ed.handle(Event::Text("3".into()));
        ed.handle(Event::NextField);
        ed.handle(Event::NextField); // skip variable
        ed.handle(Event::Text("10000".into()));
        ed.handle(Event::NextField);
        ed.handle(Event::Text("1".into()));
        ed.handle(Event::SubmitForm);
        let d = ed.doc.pipeline(ed.current).unwrap();
        let c = d.connections().next().unwrap();
        let attrs = c.dma.as_ref().expect("attrs set");
        assert_eq!(attrs.offset, 10000);
        assert_eq!(attrs.stride, 1);
        assert_eq!(d.icon(mem).unwrap().kind, IconKind::Memory { plane: Some(PlaneId(3)) });
        assert!(ed.effort.text_chars >= 7);
    }

    #[test]
    fn illegal_wires_are_refused_with_a_message() {
        let mut ed = editor();
        let m0 = place(&mut ed, IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 4));
        let m1 = place(&mut ed, IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(22, 12));
        // storage -> storage is not routable
        let got = ed.connect(PadLoc::new(m0, PadRef::Io), PadLoc::new(m1, PadRef::Io));
        assert!(got.is_none());
        assert!(ed.message.contains("refused"), "{}", ed.message);
        assert_eq!(ed.doc.pipeline(ed.current).unwrap().connection_count(), 0);
    }

    #[test]
    fn op_menu_is_capability_filtered_and_assigns() {
        let mut ed = editor();
        let als = place(&mut ed, IconKind::als(AlsKind::Triplet), Point::new(30, 5));
        // Click unit 1's box interior (middle unit, plain float): unit rows
        // start at y=5 + 4*slot; the box row for pos 1 is 5+4=9..12; click
        // inside at (33, 10).
        ed.handle(Event::MouseDown { x: 33, y: 10 });
        let ops = match &ed.mode {
            Mode::OpMenu { pos: 1, ops, .. } => ops.clone(),
            other => panic!("expected op menu, got {other:?}"),
        };
        assert!(ops.contains(&FuOp::Add));
        assert!(!ops.contains(&FuOp::IAdd), "middle unit has no integer circuitry");
        assert!(!ops.contains(&FuOp::Max), "nor min/max");
        // Pick ADD.
        let add_idx = ops.iter().position(|&o| o == FuOp::Add).unwrap();
        ed.handle(Event::MenuPick(add_idx));
        let d = ed.doc.pipeline(ed.current).unwrap();
        assert_eq!(d.fu_assign(als, 1).unwrap().op, FuOp::Add);
        assert_eq!(ed.effort.menu_picks, 1);
    }

    #[test]
    fn direct_capability_violations_are_refused() {
        let mut ed = editor();
        let als = place(&mut ed, IconKind::als(AlsKind::Triplet), Point::new(30, 5));
        assert!(!ed.assign_fu(als, 1, FuAssign::binary(FuOp::Max)));
        assert!(ed.message.contains("refused"));
        assert!(ed.assign_fu(als, 2, FuAssign::binary(FuOp::Max)), "tail unit has min/max");
    }

    #[test]
    fn undo_redo_round_trip() {
        let mut ed = editor();
        let _ = place(&mut ed, IconKind::memory(), Point::new(25, 5));
        assert_eq!(ed.doc.pipeline(ed.current).unwrap().icon_count(), 1);
        assert!(ed.undo());
        assert_eq!(ed.doc.pipeline(ed.current).unwrap().icon_count(), 0);
        assert!(ed.redo());
        assert_eq!(ed.doc.pipeline(ed.current).unwrap().icon_count(), 1);
        assert!(!ed.redo(), "redo stack exhausted");
    }

    #[test]
    fn pipeline_buttons_work() {
        let mut ed = editor();
        let first = ed.current;
        ed.press(Button::InsertPipe);
        assert_eq!(ed.doc.pipeline_count(), 2);
        assert_ne!(ed.current, first);
        ed.press(Button::Prev);
        assert_eq!(ed.current, first);
        ed.press(Button::Next);
        assert_ne!(ed.current, first);
        ed.press(Button::CopyPipe);
        assert_eq!(ed.doc.pipeline_count(), 3);
        ed.press(Button::DeletePipe);
        assert_eq!(ed.doc.pipeline_count(), 2);
    }

    #[test]
    fn check_button_reports_problems() {
        let mut ed = editor();
        let als = place(&mut ed, IconKind::als(AlsKind::Singlet), Point::new(30, 5));
        ed.assign_fu(als, 0, FuAssign::binary(FuOp::Add));
        let diags = ed.check_now();
        assert!(!diags.is_empty(), "unbound icon + missing wires warn");
        assert!(ed.message.contains("check:"));
    }

    #[test]
    fn message_strip_flags_errors_as_soon_as_detected() {
        let mut ed = editor();
        // Bind two triplet icons to the same physical ALS.
        let k = IconKind::Als {
            kind: AlsKind::Triplet,
            mode: nsc_arch::DoubletMode::Full,
            als: Some(nsc_arch::AlsId(0)),
        };
        place(&mut ed, k, Point::new(22, 4));
        place(&mut ed, k, Point::new(40, 4));
        assert!(ed.message.contains("C002"), "duplicate binding flagged: {}", ed.message);
    }
}
